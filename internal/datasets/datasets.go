// Package datasets is the versioned dataset-export layer: it turns each
// of the repo's generative substrates (litho tile maps, ISA stress
// programs, mfgtest chips) into a durable benchmark artifact, the way
// internal/model turns a fitted learner into a durable model artifact.
//
// The paper's premise is that EDA data mining starts from reusable
// datasets mined out of design/test substrates; the benchmark suites in
// the related work (CircuitNet, EDALearn) are exactly that — seeded,
// versioned, carded datasets. Each export here follows the
// internal/model envelope discipline:
//
//  1. Schema-v1 header with the generation seed and config embedded, so
//     the artifact is self-describing.
//  2. SHA-256 payload checksum; Decode rejects any mismatch with a
//     typed error, never a silently wrong table.
//  3. Deterministic bytes: no timestamps, no build revision, no map
//     iteration — the exported file is a pure function of (seed,
//     config, code), so the same seed reproduces the same bytes and
//     checksum, which CI asserts against committed expectations.
//
// Every dataset ships with a generated markdown card documenting row
// and column semantics, the split definition, a license stub, and the
// one-line reproduction command.
package datasets

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// SchemaVersion is the dataset artifact schema written by Marshal.
// Decode accepts only versions it knows how to read.
const SchemaVersion = 1

// KindDataset is the envelope kind tag; the single kind this package
// writes, present so a dataset artifact is never mistaken for a model
// artifact (and vice versa).
const KindDataset = "dataset"

// MaxDatasetBytes caps artifact size, mirroring model.MaxArtifactBytes:
// a full-scale export is a few megabytes, so 64 MiB leaves an order of
// magnitude of headroom while keeping oversized input a typed error
// instead of an allocation storm.
const MaxDatasetBytes = 64 << 20

// Sentinel errors; Decode and Load wrap them with context, match with
// errors.Is.
var (
	ErrSchemaVersion = errors.New("datasets: unsupported schema version")
	ErrChecksum      = errors.New("datasets: payload checksum mismatch")
	ErrKind          = errors.New("datasets: not a dataset artifact")
	// ErrInvalid marks an artifact that parsed but describes a table no
	// consumer could trust: ragged rows, non-finite values, column/row
	// counts that contradict the header.
	ErrInvalid  = errors.New("datasets: invalid payload")
	ErrOversize = errors.New("datasets: artifact exceeds size limit")
)

// Column documents one table column.
type Column struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// Split documents the canonical train/test split baked into the table's
// split column: a seeded shuffle at the stated unit granularity (all
// rows of one unit land on the same side).
type Split struct {
	Unit      string  `json:"unit"`       // "window", "program", "chip"
	Column    string  `json:"column"`     // name of the 0/1 split column (1 = train)
	TrainFrac float64 `json:"train_frac"` // fraction of units in train
	Seed      int64   `json:"seed"`       // split shuffle seed
}

// payload is the checksummed inner document.
type payload struct {
	Columns []Column    `json:"columns"`
	Rows    [][]float64 `json:"rows"`
}

// Envelope is the stable outer layer of a dataset artifact.
type Envelope struct {
	SchemaVersion int             `json:"schema_version"`
	Kind          string          `json:"kind"`
	Name          string          `json:"name"`
	Seed          int64           `json:"seed"`
	Config        json.RawMessage `json:"config,omitempty"` // generator config, substrate-specific
	Split         *Split          `json:"split,omitempty"`
	Rows          int             `json:"rows"`
	Cols          int             `json:"cols"`
	Checksum      string          `json:"payload_sha256"`
	Payload       json.RawMessage `json:"payload"`
}

// Dataset is one built benchmark table plus the prose that goes on its
// card. Builders produce it; Marshal/Save serialize it.
type Dataset struct {
	Name    string
	Desc    string // one-paragraph card description
	RowDesc string // what one row is
	Seed    int64
	Quick   bool // built at quick scale; the card's repro command must say so
	Config  any  // marshaled into the envelope config field
	Split   *Split
	Columns []Column
	Rows    [][]float64
}

// checksum returns the hex SHA-256 of the payload in compact JSON form
// (the same convention as internal/model).
func checksum(p []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, p); err != nil {
		return "", fmt.Errorf("datasets: compact payload: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Encode wraps the dataset in a schema-v1 envelope.
func (d *Dataset) Encode() (*Envelope, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("%w: empty dataset name", ErrInvalid)
	}
	if len(d.Rows) == 0 || len(d.Columns) == 0 {
		return nil, fmt.Errorf("%w: empty table", ErrInvalid)
	}
	for i, row := range d.Rows {
		if len(row) != len(d.Columns) {
			return nil, fmt.Errorf("%w: row %d has %d values, want %d", ErrInvalid, i, len(row), len(d.Columns))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite value at row %d col %d", ErrInvalid, i, j)
			}
		}
	}
	pl, err := json.Marshal(payload{Columns: d.Columns, Rows: d.Rows})
	if err != nil {
		return nil, fmt.Errorf("datasets: marshal payload: %w", err)
	}
	sum, err := checksum(pl)
	if err != nil {
		return nil, err
	}
	var cfg json.RawMessage
	if d.Config != nil {
		cfg, err = json.Marshal(d.Config)
		if err != nil {
			return nil, fmt.Errorf("datasets: marshal config: %w", err)
		}
	}
	return &Envelope{
		SchemaVersion: SchemaVersion,
		Kind:          KindDataset,
		Name:          d.Name,
		Seed:          d.Seed,
		Config:        cfg,
		Split:         d.Split,
		Rows:          len(d.Rows),
		Cols:          len(d.Columns),
		Checksum:      sum,
		Payload:       pl,
	}, nil
}

// Marshal renders the dataset artifact as indented JSON. The bytes are
// a pure function of the dataset contents — no timestamps, no build
// revision — so re-exporting with the same seed is byte-identical.
func (d *Dataset) Marshal() ([]byte, error) {
	env, err := d.Encode()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("datasets: marshal envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode validates a dataset artifact: size cap, schema version, kind
// tag, checksum, payload shape, and value finiteness, each failing with
// a typed error.
func Decode(data []byte) (*Envelope, []Column, [][]float64, error) {
	if len(data) > MaxDatasetBytes {
		return nil, nil, nil, fmt.Errorf("%w: %d bytes > %d", ErrOversize, len(data), MaxDatasetBytes)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, nil, nil, fmt.Errorf("datasets: parse envelope: %w", err)
	}
	if env.SchemaVersion != SchemaVersion {
		return nil, nil, nil, fmt.Errorf("%w: got %d, this build reads %d",
			ErrSchemaVersion, env.SchemaVersion, SchemaVersion)
	}
	if env.Kind != KindDataset {
		return nil, nil, nil, fmt.Errorf("%w: kind %q", ErrKind, env.Kind)
	}
	if env.Name == "" {
		return nil, nil, nil, fmt.Errorf("%w: empty dataset name", ErrInvalid)
	}
	got, err := checksum(env.Payload)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: payload is not valid JSON: %v", ErrInvalid, err)
	}
	if got != env.Checksum {
		return nil, nil, nil, fmt.Errorf("%w: envelope says %s, payload hashes to %s",
			ErrChecksum, env.Checksum, got)
	}
	var pl payload
	if err := json.Unmarshal(env.Payload, &pl); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: parse payload: %v", ErrInvalid, err)
	}
	if len(pl.Columns) != env.Cols {
		return nil, nil, nil, fmt.Errorf("%w: header says %d cols, payload has %d", ErrInvalid, env.Cols, len(pl.Columns))
	}
	if len(pl.Rows) != env.Rows {
		return nil, nil, nil, fmt.Errorf("%w: header says %d rows, payload has %d", ErrInvalid, env.Rows, len(pl.Rows))
	}
	for i, row := range pl.Rows {
		if len(row) != len(pl.Columns) {
			return nil, nil, nil, fmt.Errorf("%w: row %d has %d values, want %d", ErrInvalid, i, len(row), len(pl.Columns))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, nil, fmt.Errorf("%w: non-finite value at row %d col %d", ErrInvalid, i, j)
			}
		}
	}
	if env.Split != nil {
		found := false
		for _, c := range pl.Columns {
			if c.Name == env.Split.Column {
				found = true
				break
			}
		}
		if !found {
			return nil, nil, nil, fmt.Errorf("%w: split column %q not in table", ErrInvalid, env.Split.Column)
		}
	}
	return &env, pl.Columns, pl.Rows, nil
}

// Load reads and decodes a dataset artifact file. It reads at most
// MaxDatasetBytes+1 bytes and leaves the size check to Decode: a
// stat'd size says nothing about a device or a FIFO, which report 0.
func Load(path string) (*Envelope, []Column, [][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("datasets: read artifact: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxDatasetBytes+1))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("datasets: read artifact: %w", err)
	}
	env, cols, rows, err := Decode(data)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return env, cols, rows, nil
}

// Card renders the markdown dataset card: description, provenance
// (seed, checksum, shape), column semantics, split definition, license
// stub, and the one-line reproduction command.
func (d *Dataset) Card() (string, error) {
	env, err := d.Encode()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Dataset card: %s\n\n", d.Name)
	fmt.Fprintf(&b, "%s\n\n", strings.TrimSpace(d.Desc))
	fmt.Fprintf(&b, "## Provenance\n\n")
	fmt.Fprintf(&b, "- schema version: %d\n", env.SchemaVersion)
	fmt.Fprintf(&b, "- generation seed: %d\n", d.Seed)
	fmt.Fprintf(&b, "- rows: %d, columns: %d\n", env.Rows, env.Cols)
	fmt.Fprintf(&b, "- payload sha256: `%s`\n", env.Checksum)
	if len(env.Config) > 0 {
		fmt.Fprintf(&b, "- generator config: `%s`\n", env.Config)
	}
	fmt.Fprintf(&b, "\nThe exported bytes are a pure function of the seed and config above;\nre-running the reproduction command reproduces this file and checksum exactly.\n\n")
	fmt.Fprintf(&b, "## Rows\n\nOne row is %s.\n\n", strings.TrimSpace(d.RowDesc))
	fmt.Fprintf(&b, "## Columns\n\n| column | description |\n|---|---|\n")
	for _, c := range d.Columns {
		fmt.Fprintf(&b, "| `%s` | %s |\n", c.Name, c.Desc)
	}
	if d.Split != nil {
		fmt.Fprintf(&b, "\n## Split\n\nCanonical train/test split: seeded shuffle (seed %d) at %s granularity —\nall rows of one %s land on the same side. Column `%s` is 1 for train\n(%.0f%% of %ss) and 0 for test. Evaluations must respect this split;\ntile/row-level splits leak spatially correlated neighbours.\n",
			d.Split.Seed, d.Split.Unit, d.Split.Unit, d.Split.Column, 100*d.Split.TrainFrac, d.Split.Unit)
	}
	fmt.Fprintf(&b, "\n## License\n\nCC BY 4.0 (synthetic data; no real design or test data included).\n")
	quick := ""
	if d.Quick {
		quick = "-quick "
	}
	fmt.Fprintf(&b, "\n## Reproduce\n\n```\ngo run ./cmd/edamine -seed %d %sdatasets -only %s -out <dir>\n```\n", d.Seed, quick, d.Name)
	return b.String(), nil
}

// Save writes the artifact (<name>.json) and its card (<name>.card.md)
// under dir, returning the envelope it wrote.
func (d *Dataset) Save(dir string) (*Envelope, error) {
	data, err := d.Marshal()
	if err != nil {
		return nil, err
	}
	card, err := d.Card()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("datasets: mkdir: %w", err)
	}
	if err := os.WriteFile(dir+"/"+d.Name+".json", data, 0o644); err != nil {
		return nil, fmt.Errorf("datasets: write artifact: %w", err)
	}
	if err := os.WriteFile(dir+"/"+d.Name+".card.md", []byte(card), 0o644); err != nil {
		return nil, fmt.Errorf("datasets: write card: %w", err)
	}
	env, err := d.Encode()
	if err != nil {
		return nil, err
	}
	return env, nil
}
