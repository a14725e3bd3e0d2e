package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// MaxRequestBytes caps a predict body. Far beyond any legitimate
// batch, small enough that a hostile body is a 413, not an allocation
// storm. A PUT /models/{name} body is capped at model.MaxArtifactBytes
// instead.
const MaxRequestBytes = 32 << 20

// PredictRequest is the body of POST /predict/{model}, as clients encode
// it. The servers decode it into Instances (see DecodePredict).
type PredictRequest struct {
	Instances [][]float64 `json:"instances"`
}

// PredictResponse is the reply: Predictions[i] scores Instances[i].
type PredictResponse struct {
	Model       string    `json:"model"`
	Kind        string    `json:"kind"`
	Predictions []float64 `json:"predictions"`
}

// ModelInfo is one entry of GET /models and the reply to PUT
// /models/{name}.
type ModelInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Features int    `json:"features"`
	Seed     int64  `json:"seed"`
	Revision string `json:"revision,omitempty"`
	Checksum string `json:"payload_sha256"`
}

// ErrorBody is the body of every non-2xx reply.
type ErrorBody struct {
	Error string `json:"error"`
}

// PredictHandler serves a POST /predict/{model} the front has admitted.
// ctx carries the request deadline.
type PredictHandler func(ctx context.Context, w http.ResponseWriter, r *http.Request)

// LoadHandler serves a PUT /models/{name} the front has accepted: name
// passed the registry's name check, and body, the request body, is the
// schema-v1 envelope model.Decode turned into a.
type LoadHandler func(w http.ResponseWriter, r *http.Request, name string, a *model.Artifact, body []byte)

// Front is the HTTP surface edaserved (Server) and edarouter
// (cluster.Router) share. It owns the drain flag, the admission gate and
// the request deadline, answers /healthz and /metrics, and runs every
// check that precedes a server's own work. Its metrics live under one
// scope: <scope>.<endpoint>.{requests,latency_ns},
// <scope>.panics_recovered, <scope>.deadline_exceeded, and the
// admission gate's.
type Front struct {
	scope     string
	adm       *Admission
	timeout   time.Duration
	panics    *obs.Counter
	deadlines *obs.Counter
	draining  atomic.Bool
}

// NewFront builds a front minting its metrics under scope, admitting at
// most maxInFlight predict requests, each under requestTimeout (zero
// disables the deadline).
func NewFront(scope string, maxInFlight int, requestTimeout time.Duration) *Front {
	return &Front{
		scope:     scope,
		adm:       NewAdmission(scope, maxInFlight),
		timeout:   requestTimeout,
		panics:    obs.GetCounter(scope + ".panics_recovered"),
		deadlines: obs.GetCounter(scope + ".deadline_exceeded"),
	}
}

// StartDraining makes /readyz, PUT /models/{name} and /predict answer
// 503; requests already admitted finish.
func (f *Front) StartDraining() { f.draining.Store(true) }

// Handler returns the mux over the six endpoints, each timed and
// panic-isolated by the per-endpoint wrapper:
//
//	GET  /healthz          process liveness (always 200, never shed)
//	GET  /readyz           503 while draining, else readyz
//	GET  /models           models, after the method check
//	PUT  /models/{name}    load, after the method and drain checks, the
//	                       name check (400), the body read (413 past
//	                       model.MaxArtifactBytes) and model.Decode (422)
//	POST /predict/{model}  predict, after the method and drain checks,
//	                       priority admission and the request deadline
//	GET  /metrics          deterministic obs snapshot (JSON)
func (f *Front) Handler(readyz, models http.HandlerFunc, load LoadHandler, predict PredictHandler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", f.wrap("healthz", handleHealthz))
	mux.HandleFunc("/readyz", f.wrap("readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		readyz(w, r)
	}))
	mux.HandleFunc("/models", f.wrap("models", func(w http.ResponseWriter, r *http.Request) {
		if allow(w, r, http.MethodGet) {
			models(w, r)
		}
	}))
	mux.HandleFunc("/models/", f.wrap("models_load", func(w http.ResponseWriter, r *http.Request) {
		if !f.accept(w, r, http.MethodPut) {
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/models/")
		if err := checkName(name); err != nil {
			Error(w, http.StatusBadRequest, err.Error())
			return
		}
		body, ok := ReadBody(w, r, model.MaxArtifactBytes)
		if !ok {
			return
		}
		a, err := model.Decode(body)
		if err != nil {
			Error(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		load(w, r, name, a, body)
	}))
	mux.HandleFunc("/predict/", f.wrap("predict", func(w http.ResponseWriter, r *http.Request) {
		if f.accept(w, r, http.MethodPost) {
			f.admit(w, r, predict)
		}
	}))
	mux.HandleFunc("/metrics", f.wrap("metrics", handleMetrics))
	return mux
}

// wrap mints the per-endpoint counter and latency histogram, times
// every request through them, and isolates handler panics: a panicking
// handler answers 500 (best-effort, if nothing was written yet) and
// increments <scope>.panics_recovered instead of killing the process.
func (f *Front) wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	scope := obs.Scope(f.scope + "." + name)
	requests := scope.Counter("requests")
	latency := scope.Histogram("latency_ns")
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		t := latency.Start()
		defer t.Stop()
		defer func() {
			if rec := recover(); rec != nil {
				f.panics.Inc()
				Error(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
			}
		}()
		h(w, r)
	}
}

// allow answers 405 unless the request uses method.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		Error(w, http.StatusMethodNotAllowed, "use "+method)
		return false
	}
	return true
}

// accept is the check the predict and load endpoints open with: 405
// for any method but method, then 503 while draining.
func (f *Front) accept(w http.ResponseWriter, r *http.Request, method string) bool {
	if !allow(w, r, method) {
		return false
	}
	if f.draining.Load() {
		Error(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	return true
}

// admit runs h under an in-flight slot and the request deadline. It
// rejects rather than queue unboundedly, shedding the lowest-priority
// tier first.
func (f *Front) admit(w http.ResponseWriter, r *http.Request, h PredictHandler) {
	if !f.adm.Acquire(PriorityOf(r)) {
		w.Header().Set("Retry-After", "1")
		Error(w, http.StatusTooManyRequests, "too many in-flight requests")
		return
	}
	defer f.adm.Release()
	ctx := r.Context()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	h(ctx, w, r)
}

// Deadline answers 504 for a request whose deadline expired, and counts
// it under <scope>.deadline_exceeded.
func (f *Front) Deadline(w http.ResponseWriter, err error) {
	f.deadlines.Inc()
	Error(w, http.StatusGatewayTimeout, "request deadline exceeded: "+err.Error())
}

// Fail answers a request that failed with err: the 504 of Deadline when
// err is the request's expiry or cancellation, status otherwise.
func (f *Front) Fail(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		f.Deadline(w, err)
		return
	}
	Error(w, status, err.Error())
}

// ReadBody reads a request body of at most limit bytes. It answers 413
// past the cap and 400 on any other read error.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			Error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", limit))
			return nil, false
		}
		Error(w, http.StatusBadRequest, "read request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// DecodePredict parses a predict body into its instances. It answers
// 400 on bad JSON, a null row or value, or an empty instance list.
func DecodePredict(w http.ResponseWriter, body []byte) (Instances, bool) {
	var req predictBody
	if err := json.Unmarshal(body, &req); err != nil {
		Error(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return Instances{}, false
	}
	if req.Instances.Len() == 0 {
		Error(w, http.StatusBadRequest, "no instances")
		return Instances{}, false
	}
	return req.Instances, true
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	data, err := obs.SnapshotJSON()
	if err != nil {
		Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeReply(w, http.StatusOK, data)
}

// WriteJSON marshals before committing the status line: a value JSON
// cannot represent (a +Inf prediction from an overflowing instance,
// found by FuzzPredictHandler) becomes a clean 500 instead of a 200
// header followed by an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data, _ = json.Marshal(ErrorBody{Error: "encode response: " + err.Error()})
		status = http.StatusInternalServerError
	}
	writeReply(w, status, data)
}

// writeReply sends data and a newline as two writes, which net/http
// buffers into one response; appending the newline would copy data
// whenever it exactly fills its allocation.
func writeReply(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)           //nolint:errcheck — nothing to do on a failed reply write
	io.WriteString(w, "\n") //nolint:errcheck — nothing to do on a failed reply write
}

// Error answers status with an ErrorBody carrying msg.
func Error(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg})
}
