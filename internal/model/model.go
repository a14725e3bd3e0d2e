// Package model is the repository's versioned model-artifact layer: a
// stable on-disk envelope that lets a trained model outlive the process
// that trained it.
//
// The paper's usage models (Section 5) only pay off when learned
// knowledge is durable — the novelty-detection test-selection loop
// re-scores every new constrained-random test against a model trained
// on everything already simulated, and that model must survive between
// randomizer runs. Before this package every fitted model (SVM,
// one-class SVM, ridge, GP, decision tree, CN2-SD rule set) died with
// the process; now `edamine -save-model` persists them and
// `cmd/edaserved` serves them over HTTP (see internal/serve).
//
// Artifact format (schema version 1): a single JSON file holding an
// envelope — schema version, model kind, feature count, kernel config,
// training seed, run-manifest reference, build revision, SHA-256
// payload checksum — around a kind-specific JSON payload. Design rules:
//
//  1. Fail loudly. Load rejects unknown schema versions, unknown model
//     kinds, and any payload whose SHA-256 does not match the envelope
//     checksum. A corrupt or future-versioned artifact never produces
//     a silently wrong model.
//  2. Bit-exact round trips. Payload floats are marshaled by
//     encoding/json's shortest round-trip representation, so a loaded
//     model predicts bit-identically to the one that was saved (the
//     root e2e test asserts this over HTTP for every kind).
//  3. Deterministic bytes. Saving the same model with the same
//     metadata produces byte-identical files — no timestamps, no map
//     iteration — so artifacts can be content-addressed and diffed,
//     and the committed v1 golden files stay stable forever.
package model

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/fault"
	"repro/internal/obs"
)

// SchemaVersion is the artifact schema written by Save. Load accepts
// only versions it knows how to decode.
const SchemaVersion = 1

// Kind identifies a persistable model family.
type Kind string

// The supported model kinds.
const (
	KindSVC      Kind = "svc"      // svm.SVC — kernel support vector classifier
	KindOneClass Kind = "oneclass" // svm.OneClass — novelty detector
	KindRidge    Kind = "ridge"    // linear.Regression — OLS/ridge
	KindGP       Kind = "gp"       // gp.Regressor — Gaussian-process regression
	KindTree     Kind = "tree"     // tree.Tree — CART decision tree
	KindRuleSet  Kind = "ruleset"  // rules.RuleSet — CN2-SD rule set
)

// Kinds lists every supported kind in stable order.
func Kinds() []Kind {
	return []Kind{KindSVC, KindOneClass, KindRidge, KindGP, KindTree, KindRuleSet}
}

// Sentinel errors; Load wraps them with context, match with errors.Is.
var (
	ErrSchemaVersion = errors.New("model: unsupported schema version")
	ErrChecksum      = errors.New("model: payload checksum mismatch")
	ErrKind          = errors.New("model: unknown model kind")
	ErrKernel        = errors.New("model: unsupported kernel")
	// ErrInvalid marks an artifact that parsed but describes a model the
	// scorer could not run safely: non-finite parameters, out-of-range
	// feature indices, missing tree children, absurd dimensions.
	ErrInvalid = errors.New("model: invalid payload")
	// ErrOversize marks an artifact larger than MaxArtifactBytes. Decode
	// refuses it before parsing; Load reads at most one byte past the
	// cap, so a file, device or FIFO of any length gets this error.
	ErrOversize = errors.New("model: artifact exceeds size limit")
)

// MaxArtifactBytes caps artifact size. The largest legitimate artifact
// (a GP with its full Cholesky factor) is a few megabytes; 64 MiB keeps
// an order of magnitude of headroom while making "envelope the size of
// the disk" a loud typed error instead of an allocation storm.
const MaxArtifactBytes = 64 << 20

// Envelope is the stable outer layer of an artifact. Everything a
// loader must validate or a registry wants to display lives here; the
// kind-specific parameters live in Payload.
type Envelope struct {
	SchemaVersion int             `json:"schema_version"`
	Kind          Kind            `json:"kind"`
	Name          string          `json:"name,omitempty"`
	Features      int             `json:"features"`
	Kernel        *KernelSpec     `json:"kernel,omitempty"`
	Approx        *ApproxSpec     `json:"approx,omitempty"` // set on compiled approx-linear payloads
	Seed          int64           `json:"seed"`
	ManifestRef   string          `json:"manifest_ref,omitempty"`
	Revision      string          `json:"revision,omitempty"`
	Checksum      string          `json:"payload_sha256"`
	Payload       json.RawMessage `json:"payload"`
}

// Meta is the caller-supplied provenance stored in the envelope.
type Meta struct {
	Name        string // registry name, e.g. "fmax-gp"
	Seed        int64  // training seed
	ManifestRef string // path or identifier of the training run manifest
}

// Artifact is a loaded (or about-to-be-saved) model plus its envelope.
type Artifact struct {
	Envelope Envelope
	Model    any // *svm.SVC, *svm.OneClass, *linear.Regression, *gp.Regressor, *tree.Tree, or *rules.RuleSet
}

// checksum returns the hex SHA-256 of the payload in compact JSON form.
// Hashing the compacted bytes makes the checksum independent of the
// whitespace/indentation the envelope serializer applies around the
// embedded payload, while still covering every value in it.
func checksum(payload []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return "", fmt.Errorf("model: compact payload: %w", err)
	}
	return sha256Hex(buf.Bytes()), nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Encode wraps a fitted model in a schema-v1 envelope. The model must
// be one of the supported kinds; kernel models must use a persistable
// kernel (see KernelSpec).
func Encode(m any, meta Meta) (*Artifact, error) {
	kind, features, kspec, payload, err := encodePayload(m)
	if err != nil {
		return nil, err
	}
	// json.Marshal writes compact JSON, so the payload needs no
	// json.Compact before it is hashed: its hash is checksum(payload).
	sum := sha256Hex(payload)
	rev, _ := obs.BuildRevision()
	var aspec *ApproxSpec
	if am, ok := m.(*ApproxModel); ok {
		spec := am.Spec
		aspec = &spec
	}
	return &Artifact{
		Envelope: Envelope{
			SchemaVersion: SchemaVersion,
			Kind:          kind,
			Name:          meta.Name,
			Features:      features,
			Kernel:        kspec,
			Approx:        aspec,
			Seed:          meta.Seed,
			ManifestRef:   meta.ManifestRef,
			Revision:      rev,
			Checksum:      sum,
			Payload:       payload,
		},
		Model: m,
	}, nil
}

// Marshal renders the artifact as indented JSON. The bytes are a
// deterministic function of the model and metadata (plus the build
// revision), so identical saves are byte-identical.
func (a *Artifact) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(&a.Envelope, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("model: marshal envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// Save encodes m and writes the artifact file to path.
func Save(path string, m any, meta Meta) (*Artifact, error) {
	a, err := Encode(m, meta)
	if err != nil {
		return nil, err
	}
	data, err := a.Marshal()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("model: write artifact: %w", err)
	}
	return a, nil
}

// Decode validates an envelope and rebuilds the fitted model. It fails
// loudly — a typed error, never a panic — on oversized input, unknown
// schema versions, checksum mismatches, unknown kinds, malformed
// payloads, and payloads describing models the scorer could not run
// safely (see validate.go). The fault.SiteModelDecode injection site
// sits at the front so chaos runs can exercise every one of those
// refusal paths plus artificial decode latency.
func Decode(data []byte) (*Artifact, error) {
	if o := fault.Check(fault.SiteModelDecode); o.Err != nil || o.Delay > 0 || o.Corrupt {
		o.Wait(context.Background()) //nolint:errcheck — background ctx never cancels
		if o.Err != nil {
			return nil, o.Err
		}
		data = o.CorruptBytes(data)
	}
	if len(data) > MaxArtifactBytes {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrOversize, len(data), MaxArtifactBytes)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("model: parse envelope: %w", err)
	}
	if env.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%w: got %d, this build reads %d",
			ErrSchemaVersion, env.SchemaVersion, SchemaVersion)
	}
	if err := validateEnvelope(&env); err != nil {
		return nil, err
	}
	got, err := checksum(env.Payload)
	if err != nil {
		return nil, err
	}
	if got != env.Checksum {
		return nil, fmt.Errorf("%w: envelope says %s, payload hashes to %s",
			ErrChecksum, env.Checksum, got)
	}
	m, err := decodePayload(&env)
	if err != nil {
		return nil, err
	}
	if err := validateModel(m, &env); err != nil {
		return nil, err
	}
	return &Artifact{Envelope: env, Model: m}, nil
}

// Load reads and decodes the artifact file at path. It reads at most
// MaxArtifactBytes+1 bytes and leaves the size check to Decode: a
// stat'd size says nothing about a device or a FIFO, which report 0.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: read artifact: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxArtifactBytes+1))
	if err != nil {
		return nil, fmt.Errorf("model: read artifact: %w", err)
	}
	a, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
