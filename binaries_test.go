package repro_test

// The five commands as an operator runs them: built once per test
// process with `go build`, started as child processes, driven over HTTP
// and stopped with SIGTERM. Every server listens on 127.0.0.1:0 and
// prints the address it bound, so no port is fixed; every child is
// killed when its test ends, pass or fail, and runs in a temporary
// directory, so nothing lands in the repository tree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/cluster"
)

var (
	buildOnce sync.Once
	buildDir  string // the five binaries, and the shared edamine run's output
	buildErr  error

	mineOnce sync.Once
	mineErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// bin returns the path of the named command, building all five the
// first time any test asks. `go test` puts its own toolchain first on
// PATH, so LookPath finds the go command that is running the tests.
func bin(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		goCmd, err := exec.LookPath("go")
		if err != nil {
			buildErr = err
			return
		}
		if buildDir, err = os.MkdirTemp("", "repro-binaries-"); err != nil {
			buildErr = err
			return
		}
		out, err := exec.Command(goCmd, "build", "-o", buildDir,
			"./cmd/edamine", "./cmd/edaserved", "./cmd/edarouter", "./cmd/edaloop", "./cmd/lsusim").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, name)
}

// mined runs `edamine -quick -manifest M -save-model DIR all` once per
// test process and returns DIR and M. DIR and its parent do not exist
// beforehand, so edamine must make them. The serve and cluster tests
// boot from DIR's artifacts.
func mined(t *testing.T) (dir, manifest string) {
	t.Helper()
	edamine := bin(t, "edamine")
	dir, manifest = filepath.Join(buildDir, "mined", "models"), filepath.Join(buildDir, "manifest.json")
	mineOnce.Do(func() {
		cmd := exec.Command(edamine, "-quick", "-manifest", manifest, "-save-model", dir, "all")
		cmd.Dir = buildDir
		if out, err := cmd.CombinedOutput(); err != nil {
			mineErr = fmt.Errorf("edamine: %v\n%s", err, out)
		}
	})
	if mineErr != nil {
		t.Fatal(mineErr)
	}
	return dir, manifest
}

// run runs a command to completion in a temporary directory and returns
// its output, failing the test unless it exits 0.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin(t, name), args...)
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// lockedBuffer collects a child's output while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// proc is one running child. done closes once it has exited and its
// output is complete; err is then Wait's result.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  lockedBuffer
	done chan struct{}
	err  error
}

// start runs a command in the background for the rest of the test. The
// cleanup kills it, waits for it, and logs its output if the test failed.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(bin(t, name), args...), done: make(chan struct{})}
	p.cmd.Dir = t.TempDir()
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("%s output:\n%s", name, p.out.String())
		}
	})
	return p
}

// kill ends the child at once, as kill -9 does, and waits for it.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck — it may have exited already
	<-p.done
}

var boundAddr = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// url waits for the child to print the address it bound and returns it
// as a base URL.
func (p *proc) url(t *testing.T) string {
	t.Helper()
	var m []string
	waitFor(t, p.name+" to print its address", func() bool {
		m = boundAddr.FindStringSubmatch(p.out.String())
		return m != nil
	}, p)
	return "http://" + m[1]
}

// drain sends SIGTERM and requires a graceful exit: status 0 and
// "drained, exiting". It returns the child's whole output.
func (p *proc) drain(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit within 30s of SIGTERM", p.name)
	}
	if p.err != nil {
		t.Fatalf("%s on SIGTERM: %v, want exit 0", p.name, p.err)
	}
	out := p.out.String()
	if !strings.Contains(out, "drained, exiting") {
		t.Fatalf("%s exited 0 on SIGTERM without \"drained, exiting\"", p.name)
	}
	return out
}

// waitFor polls cond until it holds. It fails the test after 30 s, or
// as soon as one of the watched children exits.
func waitFor(t *testing.T, what string, cond func() bool, watch ...*proc) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		for _, p := range watch {
			select {
			case <-p.done:
				t.Fatalf("%s exited (%v) while waiting for %s", p.name, p.err, what)
			default:
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after 30s waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

// call sends one request and returns the status and body. A request
// that gets no answer reads as status 0, with the error as its body.
func call(method, url string, body []byte) (int, string) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err.Error()
	}
	return resp.StatusCode, string(b)
}

// One row for the zoo's 8-feature models and one for the ISA stream's
// 12-feature one-class model; predictOne (serve_e2e_test.go) sends them.
var (
	zooRow    = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	streamRow = []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
)

func TestBinaryVersion(t *testing.T) {
	for _, name := range []string{"edamine", "edaserved", "edarouter", "edaloop"} {
		if out := run(t, name, "-version"); !strings.HasPrefix(out, name+" ") {
			t.Errorf("%s -version printed %q, want %q and the revision", name, out, name+" ")
		}
	}
}

func TestBinaryLsusim(t *testing.T) {
	if out := run(t, "lsusim", "-random", "7"); !strings.Contains(out, "coverage:") {
		t.Errorf("lsusim -random 7 printed no coverage line:\n%s", out)
	}
}

// TestBinaryMine: one edamine run writes every servable artifact and a
// run manifest that names the live metrics and the stage timings.
func TestBinaryMine(t *testing.T) {
	dir, manifest := mined(t)
	arts, err := filepath.Glob(filepath.Join(dir, "*.model.json"))
	if err != nil || len(arts) != 6 {
		t.Fatalf("edamine -save-model wrote %d artifacts (%v), want 6: %v", len(arts), err, arts)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	names := map[string]bool{}
	for _, x := range m.Metrics {
		names[x.Name] = true
	}
	if len(m.Metrics) < 15 {
		t.Errorf("manifest has %d metrics, want at least 15", len(m.Metrics))
	}
	if !names["isa.cycles_simulated"] {
		t.Errorf("manifest lacks isa.cycles_simulated")
	}
	if len(m.Stages) == 0 {
		t.Errorf("manifest has no stage timings")
	}
}

// TestBinaryServe: edaserved boots on saved artifacts, answers /readyz
// and predict, takes an artifact by value under a new name and serves
// it, and drains on SIGTERM.
func TestBinaryServe(t *testing.T) {
	dir, _ := mined(t)
	srv := start(t, "edaserved", "-addr", "127.0.0.1:0", "-model-dir", dir, "-drain-timeout", "5s")
	base := srv.url(t)
	waitFor(t, "/readyz", func() bool {
		code, _ := call(http.MethodGet, base+"/readyz", nil)
		return code == http.StatusOK
	}, srv)

	if _, err := predictOne(base, "zoo-ridge", zooRow); err != nil {
		t.Fatalf("predict: %v", err)
	}
	art, err := os.ReadFile(filepath.Join(dir, "ridge.model.json"))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := call(http.MethodPut, base+"/models/pushed-ridge", art); code != http.StatusOK {
		t.Fatalf("PUT /models/pushed-ridge: status %d: %s", code, body)
	}
	if _, err := predictOne(base, "pushed-ridge", zooRow); err != nil {
		t.Fatalf("predict on the pushed model: %v", err)
	}
	srv.drain(t)
}

// TestBinaryCluster: three edaserved, each booted from its own copy of
// the artifacts, behind edarouter. Routed predicts answer through the
// kill of a model's primary owner and through a rollout by value under
// traffic, and the router drains on SIGTERM.
func TestBinaryCluster(t *testing.T) {
	dir, _ := mined(t)
	arts, err := filepath.Glob(filepath.Join(dir, "*.model.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reps []*proc
	var urls []string
	args := []string{"-addr", "127.0.0.1:0", "-replication", "2", "-probe-interval", "200ms", "-drain-timeout", "5s"}
	for i := 0; i < 3; i++ {
		own := t.TempDir()
		for _, a := range arts {
			data, err := os.ReadFile(a)
			if err == nil {
				err = os.WriteFile(filepath.Join(own, filepath.Base(a)), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rep := start(t, "edaserved", "-addr", "127.0.0.1:0", "-model-dir", own, "-drain-timeout", "5s")
		reps = append(reps, rep)
		urls = append(urls, rep.url(t))
		args = append(args, "-replica", urls[i])
	}
	router := start(t, "edarouter", args...)
	base := router.url(t)
	// The kill below is survivable only once every owner is in service.
	waitFor(t, "3 healthy replicas", func() bool {
		code, body := call(http.MethodGet, base+"/readyz", nil)
		return code == http.StatusOK && strings.Contains(body, `"healthy":3,`)
	}, router)

	predict := func() error {
		_, err := predictOne(base, "zoo-ridge", zooRow)
		return err
	}
	if err := predict(); err != nil {
		t.Fatalf("routed predict: %v", err)
	}

	// Ownership is a pure function of the model name and the fleet's
	// shape, so this router, which serves nothing, names the owners.
	reps[cluster.NewRouter(cluster.Config{Replication: 2}, urls).Owners("zoo-ridge")[0]].kill()
	for i := 0; i < 20; i++ {
		if err := predict(); err != nil {
			t.Fatalf("predict %d of 20 after the primary's kill: %v", i+1, err)
		}
	}

	// Roll the artifact out from a directory no replica reads, while
	// predicts run from before the PUT until after it answers.
	art, err := os.ReadFile(filepath.Join(dir, "ridge.model.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sent, failed atomic.Int64
	var rolled atomic.Bool
	first := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 60 || !rolled.Load(); n++ {
			if predict() != nil {
				failed.Add(1)
			}
			if sent.Add(1) == 1 {
				close(first)
			}
		}
	}()
	<-first
	code, body := call(http.MethodPut, base+"/models/zoo-ridge", art)
	rolled.Store(true)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("rollout: status %d: %s", code, body)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d of %d predicts failed during the rollout, want 0", failed.Load(), sent.Load())
	}
	router.drain(t)
}

// TestBinaryLoop: edaloop pushes every refreshed model to a live
// edaserved that started with none. The planted shift is detected,
// predicts on edaserved answer 200 across live swaps, the loop's own
// registry serves the model too, and both drain on SIGTERM.
func TestBinaryLoop(t *testing.T) {
	srv := start(t, "edaserved", "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	serveURL := srv.url(t)
	waitFor(t, "edaserved /healthz", func() bool {
		code, _ := call(http.MethodGet, serveURL+"/healthz", nil)
		return code == http.StatusOK
	}, srv)

	loop := start(t, "edaloop", "-seed", "42", "-source", "isa", "-candidates", "1000000",
		"-window", "256", "-warmup", "32", "-shift-at", "600", "-min-refit", "8", "-refresh-max", "64",
		"-addr", "127.0.0.1:0", "-push-url", serveURL)
	loopURL := loop.url(t)
	waitFor(t, "a drift-triggered refresh", func() bool {
		_, body := call(http.MethodGet, loopURL+"/loop/status", nil)
		return strings.Contains(body, `"reason":"drift"`)
	}, loop)

	// At least 200 predicts, and on until a swap has landed among them.
	published := func() int { return strings.Count(loop.out.String(), "published") }
	before := published()
	deadline := time.Now().Add(30 * time.Second)
	n := 0
	for ; n < 200 || published() == before; n++ {
		if time.Now().After(deadline) {
			t.Fatalf("no swap published during %d predicts in 30s", n)
		}
		if _, err := predictOne(serveURL, "stream-oneclass", streamRow); err != nil {
			t.Fatalf("predict %d across hot-swaps: %v", n+1, err)
		}
	}
	t.Logf("%d of %d predicts answered 200 across %d swap(s)", n, n, published()-before)

	// The loop's embedded registry, edaloop's own serving configuration.
	if _, err := predictOne(loopURL, "stream-oneclass", streamRow); err != nil {
		t.Fatalf("predict on edaloop's registry: %v", err)
	}

	if out := loop.drain(t); !strings.Contains(out, "swaps") {
		t.Fatalf("edaloop drained without its trajectory summary")
	}
	srv.drain(t)
}
