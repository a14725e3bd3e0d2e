package serve

import (
	"net/http"
	"strings"
	"testing"
)

// discardWriter is a ResponseWriter that allocates nothing per write.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestWriteJSONNoCopyAtSizeClass: a reply whose encoding exactly fills
// its allocation (64 bytes, a size class) costs no more allocations
// than one a byte shorter. Appending the trailing newline to the
// encoding copied the whole reply in the first case.
func TestWriteJSONNoCopyAtSizeClass(t *testing.T) {
	w := discardWriter{h: http.Header{}}
	allocs := func(size int) float64 {
		// `{"error":"` and `"}` are 12 bytes around the message.
		body := ErrorBody{Error: strings.Repeat("x", size-12)}
		return testing.AllocsPerRun(100, func() { WriteJSON(w, http.StatusOK, body) })
	}
	full, short := allocs(64), allocs(63)
	if full > short {
		t.Errorf("WriteJSON of a 64-byte encoding: %v allocs, of a 63-byte one: %v", full, short)
	}
}
