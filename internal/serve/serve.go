// Package serve is the batched HTTP inference layer over the versioned
// model artifacts of internal/model: the ROADMAP's "production-scale
// system serving heavy traffic" path for every model family the paper
// surveys.
//
// Architecture (net/http only, no external dependencies):
//
//   - A model registry maps names to loaded artifacts. Models load at
//     boot (cmd/edaserved -model) and hot-load at runtime
//     (PUT /models/{name}, whose body is the artifact itself), so a
//     freshly trained artifact can enter a running fleet without a
//     restart, and without a filesystem shared with its sender. The
//     package opens no file.
//   - Work is done once per request, not once per row. A predict body
//     decodes straight into one row-major matrix (see instances.go),
//     which enters the model's micro-batching queue (see batcher.go) as
//     one item. The queue scores the rows already waiting, up to
//     Config.MaxBatch, in one call that amortizes kernel/Gram
//     evaluation through internal/parallel, splitting a longer request
//     over consecutive batches. Batching is load-driven: a lone request
//     is scored at once, and the requests that arrive while a batch is
//     scored form the next batch.
//   - A bounded score memo per kernel model (see cache.go) answers
//     repeated inputs without scoring them again, from slots found by
//     a hash of the row's bits. Rows it misses go through the model's
//     ScoreBatchInto, the package's one scoring call.
//   - One HTTP front for both servers (see front.go): edaserved's
//     Server and edarouter's cluster.Router mount the same Front, which
//     declares the wire types (PredictRequest, PredictResponse,
//     ModelInfo, ErrorBody) and owns everything that precedes a
//     server's own work. That is the /predict gate (method, drain,
//     priority admission, request deadline), the load checks (method,
//     drain, name, 413 past model.MaxArtifactBytes, 422 when
//     model.Decode refuses the body), the body readers (413 past
//     MaxRequestBytes, 400 on bad JSON), the JSON reply and error
//     writer, the 504 reply, /healthz, /metrics, and the per-endpoint
//     wrapper. The Front takes its metric scope ("serve" or "cluster")
//     as data and never asks which server it fronts.
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
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
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

// Config controls the serving behavior. Each field's comment says what
// its zero value does. edaserved's flag defaults are the shipped values,
// and testkit.ShippedServeConfig mirrors them; they differ from the zero
// Config in CacheRows, RequestTimeout and DrainTimeout.
type Config struct {
	// MaxBatch caps the rows one scoring call takes from a model's
	// queue; 1 disables batching. Zero means 16, as edaserved's
	// -max-batch ships.
	MaxBatch int
	// Deprecated: MaxWait is ignored, because the batcher never holds a
	// batch open. The field stays while cmd/edabench, the repository's
	// benchmark, still sets it and pins edaserved's -max-wait flag.
	MaxWait time.Duration
	// MaxInFlight bounds concurrently served predict requests; excess
	// requests get 429, lowest priority first (low tier sheds at 50% of
	// the bound, normal at 90%, high at 100%). Zero means 256, as
	// edaserved's -max-inflight ships.
	MaxInFlight int
	// CacheRows is the score-memo capacity per exact kernel model (SVC,
	// one-class, GP): how many input rows keep their score for reuse.
	// Zero turns the memo off; edaserved's -cache-rows ships 1024.
	CacheRows int
	// RequestTimeout is the per-request deadline for predict requests:
	// the request context (and through it the batcher and kernel eval)
	// is canceled when it expires, and the caller gets 504. Zero means
	// no deadline; edaserved's -request-timeout ships 10s.
	RequestTimeout time.Duration
	// DrainTimeout bounds Close: each model queue gets this long to
	// drain normally before its scoring context is canceled (and, as a
	// last resort against a scorer that ignores cancellation, the queue
	// goroutine abandoned). Zero means 5s; edaserved's -drain-timeout
	// ships 10s.
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
	miss     misses    // the memo's scratch, used by the batcher goroutine only
	compiled bool      // approx-linear payload: O(d) fast path
}

// Server is the inference server. Create with New, register models with
// Load, mount Handler, and call Close to drain.
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
	if err := checkName(name); err != nil {
		return err
	}
	scorer, err := a.Scorer()
	if err != nil {
		return err
	}
	sm := &servedModel{name: name, artifact: a, scorer: scorer}
	if _, exact := model.ExpansionOf(a.Model); exact {
		// Exact kernel models cost O(basis) per row, so a repeated row is
		// worth remembering; the other kinds score a row for about what
		// a memo lookup costs.
		sm.cache = newRowCache(s.cfg.CacheRows, scorer.Dim())
	}
	_, sm.compiled = a.Model.(*model.ApproxModel)
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

// checkName refuses a registry name that a URL path segment could not
// carry: empty, or holding a '/' or whitespace.
func checkName(name string) error {
	if name == "" {
		return errors.New("serve: model has no name; pass one explicitly")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	return nil
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

// scoreBatch scores one micro-batch into out through the model's
// ScoreBatchInto. Exact kernel models consult the score memo first:
// memoized rows are answered from it, and only the rest are scored, as
// one smaller batch. That is bit-identical to scoring the whole batch,
// because a row's score never depends on the rows it is batched with.
// The fault.SiteKernelEval injection site sits at the front: an
// injected error fails the batch, an injected delay stalls it under the
// batch context, so drain and request deadlines stay enforceable.
func (sm *servedModel) scoreBatch(ctx context.Context, x *linalg.Matrix, out []float64) error {
	if o := fault.Check(fault.SiteKernelEval); o.Err != nil || o.Delay > 0 {
		if err := o.Wait(ctx); err != nil {
			return err
		}
		if o.Err != nil {
			return o.Err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if sm.compiled {
		approxFastPath.Add(int64(x.Rows))
	}
	// The scorer's Into path runs on pooled columnar scratch, and the
	// memo's on the batcher goroutine's, so a steady-state batch
	// allocates nothing here regardless of basis size.
	if sm.cache == nil {
		sm.scorer.ScoreBatchInto(x, out)
		return nil
	}
	m := &sm.miss
	sm.cache.lookup(x, out, m)
	cacheHits.Add(int64(x.Rows - len(m.rows)))
	cacheMisses.Add(int64(len(m.rows)))
	switch len(m.rows) {
	case 0:
	case x.Rows:
		sm.scorer.ScoreBatchInto(x, out)
		sm.cache.store(x, m, out)
	default:
		todo, scores := m.gather(x)
		sm.scorer.ScoreBatchInto(todo, scores)
		for k, i := range m.rows {
			out[i] = scores[k]
		}
		sm.cache.store(x, m, scores)
	}
	return nil
}

// Handler returns the server's HTTP mux (see Front.Handler). The
// server's own bodies:
//
//	GET  /readyz           503 until models are loaded
//	GET  /models           registered models and their provenance
//	PUT  /models/{name}    hot-load the artifact in the body under name
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

func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request, name string, a *model.Artifact, _ []byte) {
	if err := s.Load(name, a); err != nil {
		Error(w, http.StatusUnprocessableEntity, err.Error())
		return
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
	body, ok := ReadBody(w, r, MaxRequestBytes)
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
	in, ok := DecodePredict(w, body)
	if !ok {
		return
	}
	preds := make([]float64, in.Len())
	var (
		done chan error
		err  error
	)
	for {
		dim := sm.scorer.Dim()
		x, short := instanceMatrix(in, dim)
		if short >= 0 {
			Error(w, http.StatusBadRequest,
				fmt.Sprintf("instance %d has %d features, model %q needs %d", short, len(in.Row(short)), name, dim))
			return
		}
		done, err = sm.batcher.submit(ctx, x, preds)
		// A hot-swap can close this entry's queue between the registry
		// lookup and the enqueue. Unless the server itself is draining,
		// resubmit the request to the entry that replaced it, so one
		// response never mixes two models.
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
	select {
	case err = <-done:
		releaseDone(done)
	case <-ctx.Done():
		// Abandon the wait: the done channel is buffered, so the batcher
		// never blocks reporting to a gone caller.
		s.front.Deadline(w, ctx.Err())
		return
	}
	if err != nil {
		s.front.Fail(w, http.StatusInternalServerError, err)
		return
	}
	instances.Add(int64(len(preds)))
	WriteJSON(w, http.StatusOK, PredictResponse{
		Model: name, Kind: string(sm.artifact.Envelope.Kind), Predictions: preds,
	})
}

// instanceMatrix returns the instances as an n×dim matrix: the decoded
// values themselves when every row is exactly dim wide, else each row's
// first dim values, copied. short is the first row narrower than dim,
// with a nil matrix, or -1.
func instanceMatrix(in Instances, dim int) (x *linalg.Matrix, short int) {
	n := in.Len()
	exact := true
	for i := 0; i < n; i++ {
		width := len(in.Row(i))
		if width < dim {
			return nil, i
		}
		exact = exact && width == dim
	}
	if exact {
		return &linalg.Matrix{Rows: n, Cols: dim, Data: in.values}, -1
	}
	x = linalg.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		copy(x.Row(i), in.Row(i))
	}
	return x, -1
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
