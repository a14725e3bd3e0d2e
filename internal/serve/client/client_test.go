package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestClientRaceClean: concurrent TryPredicts against a healthy server.
// One Client is shared by every request the router sends one replica,
// so it must be race-clean (scripts/check.sh runs the suite under
// -race).
func TestClientRaceClean(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"model": "m", "kind": "ridge", "predictions": [2]}`)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.TryPredict(context.Background(), "m", []byte(`{"instances": [[1, 2]]}`), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
