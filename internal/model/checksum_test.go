package model

import (
	"path/filepath"
	"testing"
)

// TestEncodeChecksumIsCompactHash: Encode hashes the payload json.Marshal
// wrote without compacting it first, so its checksum must equal
// checksum(payload), which compacts, for every kind, exact and compiled.
// Re-encoding each committed golden model must reproduce the golden
// checksum.
func TestEncodeChecksumIsCompactHash(t *testing.T) {
	check := func(name string, m any) *Artifact {
		t.Helper()
		a, err := Encode(m, Meta{Name: name})
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		want, err := checksum(a.Envelope.Payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Envelope.Checksum != want {
			t.Fatalf("%s: Encode's checksum %s, checksum(payload) %s", name, a.Envelope.Checksum, want)
		}
		return a
	}
	for _, kind := range Kinds() {
		golden, err := Load(filepath.Join("testdata", "golden_v1_"+string(kind)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if a := check(string(kind), golden.Model); a.Envelope.Checksum != golden.Envelope.Checksum {
			t.Fatalf("%s: re-encoded checksum %s, golden %s", kind, a.Envelope.Checksum, golden.Envelope.Checksum)
		}
	}
	for kind, m := range compileFixtures(t) {
		for _, spec := range []ApproxSpec{
			{Method: ApproxRFF, Dim: 16, Seed: 7},
			{Method: ApproxNystrom, Dim: 8, Seed: 7},
		} {
			am, err := CompileApprox(m, spec)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", kind, spec.Method, err)
			}
			check(string(kind)+"/"+string(spec.Method), am)
		}
	}
}
