// Package serve is the batched HTTP inference layer over the versioned
// model artifacts of internal/model: the ROADMAP's "production-scale
// system serving heavy traffic" path for every model family the paper
// surveys.
//
// Architecture (net/http only, no external dependencies):
//
//   - A model registry maps names to loaded artifacts. Models load at
//     boot (cmd/edaserved -model) and hot-load at runtime
//     (POST /models/load), so a freshly trained artifact can enter a
//     running fleet without a restart.
//   - A micro-batching queue per model (see batcher.go) scores the rows
//     already waiting, up to Config.MaxBatch, in one call that amortizes
//     kernel/Gram evaluation through internal/parallel. Batching is
//     load-driven: a lone row is scored at once, and the rows that
//     arrive while a batch is scored form the next batch.
//   - A bounded score memo per kernel model (see cache.go) answers
//     repeated inputs without scoring them again. Rows it misses go
//     through the model's ScoreBatchInto, the package's one scoring
//     call.
//   - One HTTP front for both servers (see front.go): edaserved's
//     Server and edarouter's cluster.Router mount the same Front, which
//     declares the wire types (PredictRequest, PredictResponse,
//     ModelInfo, LoadRequest, ErrorBody) and owns everything that
//     precedes a server's own work. That is the /predict gate (method,
//     drain, priority admission, request deadline), the body readers
//     (413 past MaxRequestBytes, 400 on bad JSON), the JSON reply and
//     error writer, the 504 reply, /healthz, /metrics, and the
//     per-endpoint wrapper. The Front takes its metric scope ("serve"
//     or "cluster") as data and never asks which server it fronts.
//   - Bounded in-flight concurrency with priority-aware load shedding:
//     predict requests declare a priority via the X-Priority header
//     (low | normal | high) and each tier sheds (429) at its own slice
//     of MaxInFlight — low at 50%, normal at 90%, high only at 100% —
//     so overload sacrifices the least-important traffic first.
//     /healthz and /readyz never pass through the shedder: probes stay
//     fast and truthful under full load.
//   - Per-request deadlines (Config.RequestTimeout): the request
//     context propagates into the batcher and down to kernel eval, and
//     an expired deadline returns 504 instead of holding a connection.
//   - Panic isolation: the per-endpoint wrapper turns any handler panic
//     into a 500 plus a <scope>.panics_recovered counter increment — one
//     poisoned request cannot take down the process.
//   - Fault-injection sites (internal/fault) at kernel evaluation and
//     request decoding, so chaos tests can drive errors, latency, and
//     corruption through the full stack deterministically.
//   - /healthz (process up) and /readyz (models loaded, not draining),
//     per-endpoint latency histograms and counters through internal/obs
//     (exported at /metrics), and graceful drain on shutdown: readiness
//     flips first, in-flight requests finish within Config.DrainTimeout
//     (a stalled queue is context-canceled, then abandoned), so SIGTERM
//     always exits within the deadline.
//
// The serving layer inherits the repository's determinism contract:
// batching, caching, and concurrency change only the grouping of work,
// never the arithmetic, so an HTTP prediction is bit-identical to
// calling the model in-process (asserted end-to-end by serve_e2e_test).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/svm"
)

// Registry and request metrics. The Front mints the per-endpoint,
// panic, deadline and admission metrics under the scope "serve".
var (
	modelsLoaded = obs.GetGauge("serve.models_loaded")
	instances    = obs.GetCounter("serve.instances_scored")
	cacheHits    = obs.GetCounter("serve.kernel_row_cache_hits")
	cacheMisses  = obs.GetCounter("serve.kernel_row_cache_misses")

	// Compiled approx-linear models (see model.CompileApprox): how many
	// are currently registered, and how many instances took the O(d)
	// fast path that skips the kernel expansion and the score memo.
	approxCompiled = obs.GetGauge("approx.compiled_models")
	approxFastPath = obs.GetCounter("approx.fast_path_hits")
)

// Config controls the serving behavior.
type Config struct {
	// MaxBatch caps the rows one scoring call takes from a model's
	// queue; 1 disables batching. Default 16.
	MaxBatch int
	// Deprecated: MaxWait is ignored, because the batcher never holds a
	// batch open. The field stays while cmd/edabench, the repository's
	// benchmark, still sets it and pins edaserved's -max-wait flag.
	MaxWait time.Duration
	// MaxInFlight bounds concurrently served predict requests; excess
	// requests get 429, lowest priority first (low tier sheds at 50% of
	// the bound, normal at 90%, high at 100%). Default 256.
	MaxInFlight int
	// CacheRows is the score-memo capacity per exact kernel model (SVC,
	// one-class, GP): how many input rows keep their score for reuse.
	// 0 disables the memo. Default 1024.
	CacheRows int
	// RequestTimeout is the per-request deadline for predict requests:
	// the request context (and through it the batcher and kernel eval)
	// is canceled when it expires, and the caller gets 504. Zero
	// disables the deadline.
	RequestTimeout time.Duration
	// DrainTimeout bounds Close: each model queue gets this long to
	// drain normally before its scoring context is canceled (and, as a
	// last resort against a scorer that ignores cancellation, the queue
	// goroutine abandoned). Default 5s.
	DrainTimeout time.Duration
}

func (c *Config) defaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.CacheRows < 0 {
		c.CacheRows = 0
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
}

// servedModel is one registry entry: the artifact, its scorer, the
// micro-batching queue in front of it, and the score memo.
type servedModel struct {
	name     string
	artifact *model.Artifact
	scorer   model.Scorer
	batcher  *batcher
	cache    *rowCache // nil unless an exact kernel model with CacheRows > 0
	compiled bool      // approx-linear payload: O(d) fast path
}

// Server is the inference server. Create with New, register models with
// Load/LoadFile, mount Handler, and call Close to drain.
type Server struct {
	cfg   Config
	front *Front

	mu     sync.RWMutex
	models map[string]*servedModel

	closed atomic.Bool
}

// New returns a server with no models loaded.
func New(cfg Config) *Server {
	cfg.defaults()
	return &Server{
		cfg:    cfg,
		front:  NewFront("serve", cfg.MaxInFlight, cfg.RequestTimeout),
		models: make(map[string]*servedModel),
	}
}

// Load registers an artifact under name (the artifact's own name when
// empty), replacing any model already registered under it. The replaced
// model's queue is drained in the background.
func (s *Server) Load(name string, a *model.Artifact) error {
	if name == "" {
		name = a.Envelope.Name
	}
	if name == "" {
		return errors.New("serve: model has no name; pass one explicitly")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	scorer, err := a.Scorer()
	if err != nil {
		return err
	}
	sm := &servedModel{name: name, artifact: a, scorer: scorer}
	switch a.Model.(type) {
	case *svm.SVC, *svm.OneClass, *gp.Regressor:
		// Exact kernel models cost O(basis) per row, so a repeated row is
		// worth remembering; the other kinds score a row for about what
		// the memo key costs to build.
		sm.cache = newRowCache(s.cfg.CacheRows)
	case *model.ApproxModel:
		sm.compiled = true
	}
	sm.batcher = newBatcher(sm.scoreBatch, scorer.Dim(), s.cfg.MaxBatch)

	s.mu.Lock()
	old := s.models[name]
	s.models[name] = sm
	modelsLoaded.Set(int64(len(s.models)))
	compiled := int64(0)
	for _, m := range s.models {
		if m.compiled {
			compiled++
		}
	}
	approxCompiled.Set(compiled)
	s.mu.Unlock()
	if old != nil {
		// The replacement brought its own empty memo, so no score of the
		// old model can answer for the new one.
		go old.batcher.closeWithin(s.cfg.DrainTimeout)
	}
	return nil
}

// LoadFile loads the artifact at path and registers it.
func (s *Server) LoadFile(path, name string) (*model.Artifact, error) {
	a, err := model.Load(path)
	if err != nil {
		return nil, err
	}
	if err := s.Load(name, a); err != nil {
		return nil, err
	}
	return a, nil
}

// Models returns the registered model names, sorted.
func (s *Server) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for name := range s.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Server) model(name string) *servedModel {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.models[name]
}

// scoreBatch scores one micro-batch through the model's ScoreBatchInto.
// Exact kernel models consult the score memo first: memoized rows are
// answered from it, and only the rest are scored, as one smaller batch.
// That is bit-identical to scoring the whole batch, because a row's score
// never depends on the rows it is batched with.
// The fault.SiteKernelEval injection site sits at the front: an
// injected error fails the batch, an injected delay stalls it under the
// batch context, so drain and request deadlines stay enforceable.
func (sm *servedModel) scoreBatch(ctx context.Context, x *linalg.Matrix) ([]float64, error) {
	if o := fault.Check(fault.SiteKernelEval); o.Err != nil || o.Delay > 0 {
		if err := o.Wait(ctx); err != nil {
			return nil, err
		}
		if o.Err != nil {
			return nil, o.Err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	todo := x // the rows that need scoring
	var (
		out  []float64 // with a memo: the response, hits filled in first
		miss []int     // with a memo: indices of the rows it lacks
		keys []string  // and their memo keys
	)
	if sm.cache != nil {
		out = make([]float64, x.Rows)
		for i := range out {
			key := rowKey(x.Row(i))
			if v, ok := sm.cache.get(key); ok {
				out[i] = v
			} else {
				miss, keys = append(miss, i), append(keys, key)
			}
		}
		cacheHits.Add(int64(x.Rows - len(miss)))
		cacheMisses.Add(int64(len(miss)))
		if len(miss) == 0 {
			return out, nil
		}
		if len(miss) < x.Rows {
			todo = linalg.NewMatrix(len(miss), x.Cols)
			for m, i := range miss {
				copy(todo.Row(m), x.Row(i))
			}
		}
	}
	if sm.compiled {
		approxFastPath.Add(int64(x.Rows))
	}
	// The response slice is the only allocation on the unmemoized path:
	// the scorer's Into path runs on pooled columnar scratch, so a
	// steady-state batch costs O(1) allocations regardless of basis size.
	scores := sm.scorer.ScoreBatchInto(todo, make([]float64, todo.Rows))
	if sm.cache == nil {
		return scores, nil
	}
	for m, i := range miss {
		out[i] = scores[m]
		sm.cache.put(keys[m], scores[m])
	}
	return out, nil
}

// Handler returns the server's HTTP mux (see Front.Handler). The
// server's own bodies:
//
//	GET  /readyz           503 until models are loaded
//	GET  /models           registered models and their provenance
//	POST /models/load      hot-load an artifact file: {"path": ..., "name": ...}
//	POST /predict/{model}  score instances: {"instances": [[...], ...]}
func (s *Server) Handler() http.Handler {
	return s.front.Handler(s.handleReadyz, s.handleModels, s.handleLoad, s.handlePredict)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.models)
	s.mu.RUnlock()
	if n == 0 {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no models loaded"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "models": n})
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	infos := make([]ModelInfo, 0, len(s.models))
	for name, sm := range s.models {
		infos = append(infos, modelInfo(name, &sm.artifact.Envelope))
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request, req LoadRequest) {
	a, err := s.LoadFile(req.Path, req.Name)
	if err != nil {
		Error(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	name := req.Name
	if name == "" {
		name = a.Envelope.Name
	}
	WriteJSON(w, http.StatusOK, modelInfo(name, &a.Envelope))
}

func modelInfo(name string, env *model.Envelope) ModelInfo {
	return ModelInfo{
		Name: name, Kind: string(env.Kind), Features: env.Features,
		Seed: env.Seed, Revision: env.Revision, Checksum: env.Checksum,
	}
}

func (s *Server) handlePredict(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/predict/")
	sm := s.model(name)
	if sm == nil {
		Error(w, http.StatusNotFound, fmt.Sprintf("no model %q loaded", name))
		return
	}
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	// Chaos coverage of the decode boundary: injected errors surface as
	// retryable 500s, injected delays respect the request deadline, and
	// injected corruption flips body bytes so the JSON layer sees
	// hostile input (a deterministic 400, which clients must not retry).
	if o := fault.Check(fault.SitePredictDecode); o.Err != nil || o.Delay > 0 || o.Corrupt {
		if werr := o.Wait(ctx); werr != nil {
			s.front.Deadline(w, werr)
			return
		}
		if o.Err != nil {
			Error(w, http.StatusInternalServerError, o.Err.Error())
			return
		}
		body = o.CorruptBytes(body)
	}
	req, ok := DecodePredict(w, body)
	if !ok {
		return
	}
	var (
		chans []<-chan batchResponse
		err   error
	)
	for {
		dim := sm.scorer.Dim()
		for i, inst := range req.Instances {
			if len(inst) < dim {
				Error(w, http.StatusBadRequest,
					fmt.Sprintf("instance %d has %d features, model %q needs %d", i, len(inst), name, dim))
				return
			}
		}
		chans, err = sm.submitAll(ctx, req.Instances)
		// A hot-swap can close this entry's queue between the registry
		// lookup and the enqueue. Unless the server itself is draining,
		// resubmit the whole request to the entry that replaced it, so
		// one response never mixes two models.
		if !errors.Is(err, ErrDraining) || s.front.draining.Load() {
			break
		}
		next := s.model(name)
		if next == nil || next == sm {
			break
		}
		sm = next
	}
	if err != nil {
		s.front.Fail(w, http.StatusServiceUnavailable, err)
		return
	}
	preds := make([]float64, len(chans))
	for i, ch := range chans {
		var resp batchResponse
		select {
		case resp = <-ch:
		case <-ctx.Done():
			// Abandon the wait: every pending reply channel is buffered,
			// so the batcher never blocks delivering to a gone caller.
			s.front.Deadline(w, ctx.Err())
			return
		}
		if resp.err != nil {
			s.front.Fail(w, http.StatusInternalServerError, resp.err)
			return
		}
		preds[i] = resp.value
	}
	instances.Add(int64(len(preds)))
	WriteJSON(w, http.StatusOK, PredictResponse{
		Model: name, Kind: string(sm.artifact.Envelope.Kind), Predictions: preds,
	})
}

// submitAll enqueues every instance on the entry's batcher and returns
// the reply channels in request order. Instances from one request batch
// with each other and with concurrent requests.
func (sm *servedModel) submitAll(ctx context.Context, instances [][]float64) ([]<-chan batchResponse, error) {
	chans := make([]<-chan batchResponse, len(instances))
	for i, inst := range instances {
		ch, err := sm.batcher.submit(ctx, inst)
		if err != nil {
			return nil, err
		}
		chans[i] = ch
	}
	return chans, nil
}

// StartDraining flips readiness off so load balancers stop routing here;
// requests already accepted keep being served.
func (s *Server) StartDraining() { s.front.StartDraining() }

// Close drains every model queue and releases the registry. Each queue
// gets Config.DrainTimeout to empty; one that cannot (a stalled scorer)
// is context-canceled and, at the last resort, abandoned — Close always
// returns, so a SIGTERM handler calling it always exits. Idempotent.
func (s *Server) Close() {
	s.StartDraining()
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	models := make([]*servedModel, 0, len(s.models))
	for _, sm := range s.models {
		models = append(models, sm)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, sm := range models {
		wg.Add(1)
		go func(sm *servedModel) {
			defer wg.Done()
			sm.batcher.closeWithin(s.cfg.DrainTimeout)
		}(sm)
	}
	wg.Wait()
}
