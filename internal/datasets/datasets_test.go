package datasets

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func buildQuick(t *testing.T, name string, seed int64) *Dataset {
	t.Helper()
	d, err := Build(name, Options{Seed: seed, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTripAllDatasets(t *testing.T) {
	for _, name := range Names() {
		d := buildQuick(t, name, 7)
		data, err := d.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		env, cols, rows, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if env.Name != name || env.Seed != 7 || env.SchemaVersion != SchemaVersion {
			t.Fatalf("%s: envelope %+v lost identity", name, env)
		}
		if !reflect.DeepEqual(cols, d.Columns) {
			t.Fatalf("%s: columns did not round-trip", name)
		}
		if !reflect.DeepEqual(rows, d.Rows) {
			t.Fatalf("%s: rows did not round-trip bit-exactly", name)
		}
		if env.Split == nil || env.Split.Column != "split" {
			t.Fatalf("%s: split definition missing from envelope", name)
		}
	}
}

func TestExportIsBitReproducible(t *testing.T) {
	for _, name := range Names() {
		a, err := buildQuick(t, name, 11).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildQuick(t, name, 11).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: same seed produced different bytes", name)
		}
	}
}

func TestSeedFlipChangesChecksum(t *testing.T) {
	for _, name := range Names() {
		e1, err := buildQuick(t, name, 11).Encode()
		if err != nil {
			t.Fatal(err)
		}
		e2, err := buildQuick(t, name, 12).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if e1.Checksum == e2.Checksum {
			t.Fatalf("%s: seeds 11 and 12 produced the same checksum %s", name, e1.Checksum)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	d := buildQuick(t, "mfgtest-chips", 5)
	good, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("payload-tamper", func(t *testing.T) {
		// Perturb one table value, keep the original checksum.
		var env Envelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		var pl struct {
			Columns []Column    `json:"columns"`
			Rows    [][]float64 `json:"rows"`
		}
		if err := json.Unmarshal(env.Payload, &pl); err != nil {
			t.Fatal(err)
		}
		pl.Rows[0][0]++
		tampered, err := json.Marshal(pl)
		if err != nil {
			t.Fatal(err)
		}
		env.Payload = tampered
		bad, _ := json.Marshal(&env)
		if _, _, _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("tampered payload: got %v, want ErrChecksum", err)
		}
	})
	t.Run("checksum-tamper", func(t *testing.T) {
		var env Envelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		env.Checksum = strings.Repeat("0", 64)
		bad, _ := json.Marshal(&env)
		if _, _, _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("forged checksum: got %v, want ErrChecksum", err)
		}
	})
	t.Run("schema-version", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`"schema_version": 1`), []byte(`"schema_version": 99`), 1)
		if _, _, _, err := Decode(bad); !errors.Is(err, ErrSchemaVersion) {
			t.Fatalf("future schema: got %v, want ErrSchemaVersion", err)
		}
	})
	t.Run("wrong-kind", func(t *testing.T) {
		bad := bytes.Replace(good, []byte(`"kind": "dataset"`), []byte(`"kind": "model"`), 1)
		if _, _, _, err := Decode(bad); !errors.Is(err, ErrKind) {
			t.Fatalf("model kind: got %v, want ErrKind", err)
		}
	})
	t.Run("row-count-lie", func(t *testing.T) {
		var env Envelope
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		env.Rows++
		bad, _ := json.Marshal(&env)
		if _, _, _, err := Decode(bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("row-count lie: got %v, want ErrInvalid", err)
		}
	})
	t.Run("oversize", func(t *testing.T) {
		big := make([]byte, MaxDatasetBytes+1)
		if _, _, _, err := Decode(big); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize: got %v, want ErrOversize", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, _, _, err := Decode([]byte("not json")); err == nil {
			t.Fatal("garbage decoded without error")
		}
	})
}

func TestEncodeRejectsBadTables(t *testing.T) {
	base := func() *Dataset {
		return &Dataset{
			Name:    "x",
			Columns: []Column{{Name: "a"}, {Name: "b"}},
			Rows:    [][]float64{{1, 2}},
		}
	}
	d := base()
	d.Rows = append(d.Rows, []float64{1})
	if _, err := d.Encode(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("ragged rows: got %v, want ErrInvalid", err)
	}
	d = base()
	d.Rows[0][1] = nan()
	if _, err := d.Encode(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("NaN value: got %v, want ErrInvalid", err)
	}
	d = base()
	d.Name = ""
	if _, err := d.Encode(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty name: got %v, want ErrInvalid", err)
	}
	if _, err := Build("no-such-dataset", Options{}); err == nil {
		t.Fatal("unknown dataset built without error")
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestCardContents(t *testing.T) {
	for _, name := range Names() {
		d := buildQuick(t, name, 9)
		card, err := d.Card()
		if err != nil {
			t.Fatal(err)
		}
		env, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"# Dataset card: " + name,
			"generation seed: 9",
			env.Checksum,
			"## Columns",
			"## Split",
			"CC BY 4.0",
			"go run ./cmd/edamine -seed 9 -quick datasets -only " + name,
		} {
			if !strings.Contains(card, want) {
				t.Fatalf("%s card missing %q:\n%s", name, want, card)
			}
		}
		for _, c := range d.Columns {
			if !strings.Contains(card, "`"+c.Name+"`") {
				t.Fatalf("%s card missing column %s", name, c.Name)
			}
		}
	}
}

func TestSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	d := buildQuick(t, "isa-stress", 3)
	env, err := d.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, cols, rows, err := Load(dir + "/isa-stress.json")
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != env.Checksum || len(cols) != env.Cols || len(rows) != env.Rows {
		t.Fatalf("loaded artifact disagrees with saved envelope")
	}
	if _, _, _, err := Load(dir + "/missing.json"); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestLoadOversizedRejected: Load stops one byte past MaxDatasetBytes,
// for a regular file and for a device that reports size 0 and never
// ends, and reports ErrOversize instead of reading until memory runs
// out.
func TestLoadOversizedRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.json")
	if err := os.WriteFile(path, make([]byte, MaxDatasetBytes+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Load(path); !errors.Is(err, ErrOversize) {
		t.Fatalf("Load(oversized) = %v, want ErrOversize", err)
	}

	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skipf("no /dev/zero: %v", err)
	}
	if _, _, _, err := Load("/dev/zero"); !errors.Is(err, ErrOversize) {
		t.Fatalf("Load(/dev/zero) = %v, want ErrOversize", err)
	}
}

func TestSplitFlags(t *testing.T) {
	flags := splitFlags(1, 10, 0.7)
	n := 0
	for _, f := range flags {
		if f != 0 && f != 1 {
			t.Fatalf("flag %v not 0/1", f)
		}
		if f == 1 {
			n++
		}
	}
	if n != 7 {
		t.Fatalf("got %d train units of 10 at frac 0.7, want 7", n)
	}
	if !reflect.DeepEqual(flags, splitFlags(1, 10, 0.7)) {
		t.Fatal("split flags are not a pure function of the seed")
	}
	// Degenerate sizes never produce an empty side.
	f2 := splitFlags(1, 2, 0.99)
	if f2[0]+f2[1] != 1 {
		t.Fatalf("2-unit split %v does not have exactly one train unit", f2)
	}
}
