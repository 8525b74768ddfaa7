// Package httpapi is the wire layer shared by the serving binaries
// (cmd/relserve and cmd/relfleet): the /predict request and answer
// forms, the answer → HTTP status policy, the /stats and /estimates
// encodings, bounded body reads, graceful shutdown, and the choice of
// engine for the model a binary serves.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// MaxBodyBytes bounds every request body the serving binaries read; a
// longer body is refused whole with 413.
const MaxBodyBytes = 4 << 20

// PredictRequest is the wire form of one /predict or /predict/batch
// call. Scope isolates tenants on relfleet: degraded answers never cross
// scopes, and the (scope, service, parameter-region) triple is the
// routing key. relserve sets the scope from the stored model instead.
type PredictRequest struct {
	Service   string      `json:"service,omitempty"`
	Scope     string      `json:"scope,omitempty"`
	Params    []float64   `json:"params,omitempty"`
	ParamSets [][]float64 `json:"param_sets,omitempty"`
	Priority  string      `json:"priority,omitempty"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// Point is the single-point serving request the call describes.
func (p PredictRequest) Point(pri server.Priority) server.Request {
	return server.Request{
		Service:  p.Service,
		Scope:    p.Scope,
		Params:   p.Params,
		Priority: pri,
		Timeout:  time.Duration(p.TimeoutMS) * time.Millisecond,
	}
}

// Batch is the batch serving request the call describes.
func (p PredictRequest) Batch(pri server.Priority) server.BatchRequest {
	return server.BatchRequest{
		Service:   p.Service,
		Scope:     p.Scope,
		ParamSets: p.ParamSets,
		Priority:  pri,
		Timeout:   time.Duration(p.TimeoutMS) * time.Millisecond,
	}
}

// Decode reads a /predict or /predict/batch body of at most MaxBodyBytes
// and resolves its priority class, def when the body names none. On a
// bad body it writes the error answer (413 past the limit, 400
// otherwise) and returns false.
func Decode(w http.ResponseWriter, r *http.Request, def server.Priority) (PredictRequest, server.Priority, bool) {
	var req PredictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(&req); err != nil {
		BodyError(w, err)
		return req, 0, false
	}
	pri := def
	if req.Priority != "" {
		var err error
		if pri, err = ParsePriority(req.Priority); err != nil {
			Error(w, http.StatusBadRequest, err)
			return req, 0, false
		}
	}
	return req, pri, true
}

// BodyError answers a failed body read: 413 when the body passed
// MaxBodyBytes, 400 otherwise.
func BodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	Error(w, status, fmt.Errorf("bad request body: %w", err))
}

// ParsePriority maps a wire priority name to its class; the empty name is
// Interactive.
func ParsePriority(s string) (server.Priority, error) {
	switch s {
	case "", "interactive":
		return server.Interactive, nil
	case "batch":
		return server.Batch, nil
	case "best-effort":
		return server.BestEffort, nil
	default:
		return 0, fmt.Errorf("unknown priority %q (want interactive, batch, or best-effort)", s)
	}
}

// PredictResponse is the wire form of one answer. Kind is always set;
// Error is present exactly when the answer is degraded. Pfail and
// Reliability are present exactly when the answer has a value (exact or
// stale): an unavailable answer has none, and must not read as Pfail 0.
type PredictResponse struct {
	Kind        string   `json:"kind"`
	Pfail       *float64 `json:"pfail,omitempty"`
	Reliability *float64 `json:"reliability,omitempty"`
	AgeMS       int64    `json:"age_ms,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// ToResponse converts an answer to its wire form.
func ToResponse(a socruntime.Answer) PredictResponse {
	r := PredictResponse{Kind: a.Kind.String()}
	if a.Kind != socruntime.Unavailable {
		pfail, reliability := a.Pfail, a.Reliability()
		r.Pfail, r.Reliability = &pfail, &reliability
	}
	if a.Age > 0 {
		r.AgeMS = a.Age.Milliseconds()
	}
	if a.Err != nil {
		r.Error = a.Err.Error()
	}
	return r
}

// StatusFor maps an answer to its HTTP status: any usable value (exact,
// stale) is a 200; a request shed by admission control (which
// includes a draining server) or sent to a stopped replica is a 503; any
// other failure is a 500.
func StatusFor(a socruntime.Answer) int {
	if a.Kind != socruntime.Unavailable {
		return http.StatusOK
	}
	if errors.Is(a.Err, server.ErrOverloaded) || errors.Is(a.Err, cluster.ErrStopped) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// WriteAnswer writes one answer with its status.
func WriteAnswer(w http.ResponseWriter, a socruntime.Answer) {
	writeAnswer(w, StatusFor(a), ToResponse(a))
}

// WriteBatch writes a batch's answers. The batch is a 200 unless no
// point was exact and the first point was shed, in which case it takes
// the shed status.
func WriteBatch(w http.ResponseWriter, answers []socruntime.Answer) {
	resp := make([]PredictResponse, len(answers))
	exact := 0
	for i, a := range answers {
		resp[i] = ToResponse(a)
		if a.Kind == socruntime.Exact {
			exact++
		}
	}
	status := http.StatusOK
	if len(answers) > 0 && exact == 0 && StatusFor(answers[0]) == http.StatusServiceUnavailable {
		status = http.StatusServiceUnavailable
	}
	writeAnswer(w, status, map[string]any{"answers": resp})
}

// writeAnswer writes v; a 503 carries Retry-After, the hint on which
// clients and load balancers back off.
func writeAnswer(w http.ResponseWriter, status int, v any) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, v)
}

// ServerStats is the /stats encoding of one serving tier: its counters
// (durations in microseconds under _us keys), its drain flag and, when
// est is non-nil, the estimator's counters under "estimator".
func ServerStats(st server.Stats, draining bool, est *estimate.Estimator) map[string]any {
	stats := map[string]any{
		"offered":              st.Offered,
		"admitted":             st.Admitted,
		"exact":                st.Exact,
		"stale":                st.Stale,
		"unavailable":          st.Unavailable,
		"shed_queue_full":      st.ShedQueueFull,
		"shed_class":           st.ShedClass,
		"shed_deadline":        st.ShedDeadline,
		"shed_draining":        st.ShedDraining,
		"draining":             draining,
		"swept_expired":        st.SweptExpired,
		"canceled_waiting":     st.CanceledWaiting,
		"repaired":             st.Repaired,
		"limit":                st.Limit,
		"inflight":             st.Inflight,
		"queue_depth":          st.QueueDepth,
		"estimated_latency_us": st.EstimatedLatency.Microseconds(),
		"saturation":           st.Saturation.String(),
	}
	if est != nil {
		stats["estimator"] = est.Stats()
	}
	return stats
}

// EstimateMeta is the wire form of one estimation bucket.
type EstimateMeta struct {
	Provider     string  `json:"provider"`
	Context      string  `json:"context,omitempty"`
	Load         int     `json:"load,omitempty"`
	Rate         float64 `json:"rate"`
	Lo           float64 `json:"lo"`
	Hi           float64 `json:"hi"`
	Observations int     `json:"observations"`
	Failures     int     `json:"failures"`
	MeanLatencyS float64 `json:"mean_latency_s,omitempty"`
	Bound        float64 `json:"bound,omitempty"`
	Drift        string  `json:"drift,omitempty"`
	Direction    int     `json:"direction,omitempty"`
}

// Estimates lists est's buckets in wire form, leaving out buckets that
// have neither a fit nor an observation.
func Estimates(est *estimate.Estimator) []EstimateMeta {
	all := est.All()
	out := make([]EstimateMeta, 0, len(all))
	for _, b := range all {
		if !b.OK && b.Estimate.Observations == 0 {
			continue
		}
		m := EstimateMeta{
			Provider:     b.Key.Provider,
			Context:      b.Key.Context,
			Load:         b.Key.Load,
			Rate:         b.Estimate.Rate,
			Lo:           b.Estimate.Lo,
			Hi:           b.Estimate.Hi,
			Observations: b.Estimate.Observations,
			Failures:     b.Estimate.Failures,
			MeanLatencyS: b.Estimate.MeanLatency,
			Bound:        b.Bound,
			Direction:    b.Direction,
		}
		if b.Drift != monitor.Verdict(0) {
			m.Drift = b.Drift.String()
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON writes v as a JSON body with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes {"error": err} with status.
func Error(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// ListenAndDrain serves hs until SIGTERM or SIGINT, then runs drain
// while the listener stays up, so requests arriving during the drain
// get 503 + Retry-After rather than connection resets, and finally
// shuts hs down.
func ListenAndDrain(hs *http.Server, drain func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// Engine is an assembly ready to serve.
type Engine struct {
	// Compiled is the concurrency-safe compiled artifact every server
	// shares, with the parametric closed-form layer on top; nil when the
	// assembly is not compilable and evaluation is interpreted.
	Compiled *core.CompiledAssembly
	// Mode names the evaluation path: "parametric", "compiled" or
	// "interpreted".
	Mode string
	asm  *assembly.Assembly
	opts core.Options
}

// NewEngine compiles asm for service when possible, with the parametric
// closed-form layer on top, and otherwise falls back to the interpreter.
func NewEngine(asm *assembly.Assembly, opts core.Options, service string) (*Engine, error) {
	ca, err := core.CompileParametric(asm, opts, core.ParametricOptions{}, service)
	switch {
	case err == nil:
		mode := "compiled"
		if ca.ParametricStats().Outputs > 0 {
			mode = "parametric"
		}
		return &Engine{Compiled: ca, Mode: mode, asm: asm, opts: opts}, nil
	case errors.Is(err, core.ErrNotCompilable):
		return &Engine{Mode: "interpreted", asm: asm, opts: opts}, nil
	default:
		return nil, err
	}
}

// Evaluator returns an evaluator for one serving tier: the shared
// compiled artifact, or the interpreter.
func (e *Engine) Evaluator() server.Evaluator {
	if e.Compiled != nil {
		return e.Compiled
	}
	return interpretedEval{asm: e.asm, opts: e.opts}
}

// interpretedEval runs every request on a fresh interpreted evaluator, so
// no memo outlives its request and concurrent requests share only the
// read-only assembly.
type interpretedEval struct {
	asm  *assembly.Assembly
	opts core.Options
}

func (e interpretedEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	return core.New(e.asm, e.opts).PfailCtx(ctx, service, params...)
}
