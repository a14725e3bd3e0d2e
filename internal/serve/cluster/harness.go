package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/model"
	"repro/internal/serve"
)

// Local is the deterministic in-process cluster harness: n real
// serve.Servers, each on its own loopback listener, behind one Router
// — all in one process sharing the global obs registry. Tests and the
// chaos harness use it to run genuine multi-node traffic (real TCP,
// real HTTP, real node death) while keeping every run a pure function
// of its seed:
//
//   - Kill(i) closes replica i's listener, so the router's next attempt
//     gets a real refused connection — the same failure a crashed node
//     produces, with none of the timing noise of a child process.
//   - Replica health reads no clock: it moves only on counted events
//     (a request that never reached the replica, a readiness probe),
//     so membership churn replays from the seed like everything else.
//   - LoadDirect registers a model on every owner in-process, skipping
//     the HTTP rollout (PUT /models/{name} on the router) when a test
//     only needs traffic, not rollout mechanics.
type Local struct {
	Router   *Router
	Servers  []*serve.Server
	listener []net.Listener
	httpSrv  []*http.Server

	routerLn  net.Listener
	routerSrv *http.Server

	mu     sync.Mutex
	killed []bool
}

// NewLocal boots n replica servers on loopback and a router over them.
// Replicas start unprobed (unhealthy); call ProbeAll to admit them.
// Callers own Close.
func NewLocal(n int, scfg serve.Config, ccfg Config) (*Local, error) {
	l := &Local{
		Servers:  make([]*serve.Server, n),
		listener: make([]net.Listener, n),
		httpSrv:  make([]*http.Server, n),
		killed:   make([]bool, n),
	}
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: listen replica %d: %w", i, err)
		}
		srv := serve.New(scfg)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln) //nolint:errcheck — Serve returns on Close, which is the plan
		l.Servers[i] = srv
		l.listener[i] = ln
		l.httpSrv[i] = hs
		bases[i] = "http://" + ln.Addr().String()
	}
	l.Router = NewRouter(ccfg, bases)
	return l, nil
}

// Serve additionally exposes the router itself over a loopback
// listener and returns its base URL, for tests that want to drive the
// whole stack through a real HTTP client (serve/client against the
// router). Idempotent.
func (l *Local) Serve() (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.routerLn != nil {
		return "http://" + l.routerLn.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("cluster: listen router: %w", err)
	}
	l.routerLn = ln
	l.routerSrv = &http.Server{Handler: l.Router.Handler()}
	go l.routerSrv.Serve(ln) //nolint:errcheck — Serve returns on Close
	return "http://" + ln.Addr().String(), nil
}

// ProbeAll admits every live replica to the serving set.
func (l *Local) ProbeAll(ctx context.Context) int { return l.Router.ProbeAll(ctx) }

// LoadDirect loads the artifact into every owner replica in-process —
// a deterministic stand-in for a completed rollout. name may be empty
// to use the artifact's own name (same contract as serve.Load).
func (l *Local) LoadDirect(name string, a *model.Artifact) error {
	key := name
	if key == "" {
		key = a.Envelope.Name
	}
	for _, oi := range l.Router.Owners(key) {
		if err := l.Servers[oi].Load(name, a); err != nil {
			return fmt.Errorf("cluster: load %q on replica %d: %w", key, oi, err)
		}
	}
	return nil
}

// Kill closes replica i's listener and server: in-flight connections
// drop and new ones are refused, exactly like a crashed node.
// Idempotent.
func (l *Local) Kill(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.httpSrv) || l.killed[i] {
		return
	}
	l.killed[i] = true
	if l.httpSrv[i] != nil {
		l.httpSrv[i].Close() //nolint:errcheck — already-closed is fine
	}
	if l.Servers[i] != nil {
		l.Servers[i].Close()
	}
}

// Revive re-listens replica i on a fresh port after a Kill and swaps
// the router's view of it to the new address. The replica rejoins the
// serving set at its next successful probe.
func (l *Local) Revive(i int, scfg serve.Config) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.httpSrv) || !l.killed[i] {
		return fmt.Errorf("cluster: replica %d is not killed", i)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: re-listen replica %d: %w", i, err)
	}
	srv := serve.New(scfg)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck — Serve returns on Close
	l.Servers[i] = srv
	l.listener[i] = ln
	l.httpSrv[i] = hs
	l.killed[i] = false
	rep := l.Router.replicas[i]
	rep.Base = "http://" + ln.Addr().String()
	rep.c = newReplica(i, rep.Base, l.Router.cfg).c
	return nil
}

// Close tears the whole cluster down: router first (stop admitting),
// then every replica. Safe to call more than once.
func (l *Local) Close() {
	if l.Router != nil {
		l.Router.Close()
	}
	l.mu.Lock()
	if l.routerSrv != nil {
		l.routerSrv.Close() //nolint:errcheck — already-closed is fine
		l.routerSrv = nil
		l.routerLn = nil
	}
	l.mu.Unlock()
	for i := range l.httpSrv {
		l.Kill(i)
	}
}
