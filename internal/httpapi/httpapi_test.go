package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"socrel/internal/cluster"
	"socrel/internal/linalg"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

func ptr(v float64) *float64 { return &v }

// TestAnswerWire: each answer kind maps to its status, its Retry-After
// header and its wire body. An unavailable answer carries no pfail and no
// reliability: it has no value, and a client that read reliability
// without kind would see a failure as certain success.
func TestAnswerWire(t *testing.T) {
	boom := errors.New("backend exploded")
	noConv := &linalg.NoConvergenceError{Iterations: 10, Residual: 0.05}
	cases := []struct {
		name       string
		ans        socruntime.Answer
		status     int
		retryAfter bool
		body       PredictResponse
	}{
		{
			name:   "exact",
			ans:    socruntime.Answer{Kind: socruntime.Exact, Pfail: 0.25},
			status: http.StatusOK,
			body:   PredictResponse{Kind: "exact", Pfail: ptr(0.25), Reliability: ptr(0.75)},
		},
		{
			name:   "stale carries age_ms",
			ans:    socruntime.Answer{Kind: socruntime.Stale, Pfail: 0.5, Age: 1500 * time.Millisecond, Err: boom},
			status: http.StatusOK,
			body:   PredictResponse{Kind: "stale", Pfail: ptr(0.5), Reliability: ptr(0.5), AgeMS: 1500, Error: boom.Error()},
		},
		{
			name:       "overloaded",
			ans:        socruntime.Answer{Kind: socruntime.Unavailable, Err: server.ErrQueueFull},
			status:     http.StatusServiceUnavailable,
			retryAfter: true,
			body:       PredictResponse{Kind: "unavailable", Error: server.ErrQueueFull.Error()},
		},
		{
			name:       "draining",
			ans:        socruntime.Answer{Kind: socruntime.Unavailable, Err: server.ErrDraining},
			status:     http.StatusServiceUnavailable,
			retryAfter: true,
			body:       PredictResponse{Kind: "unavailable", Error: server.ErrDraining.Error()},
		},
		{
			name:       "stopped replica",
			ans:        socruntime.Answer{Kind: socruntime.Unavailable, Err: fmt.Errorf("forward: %w", cluster.ErrStopped)},
			status:     http.StatusServiceUnavailable,
			retryAfter: true,
			body:       PredictResponse{Kind: "unavailable", Error: "forward: " + cluster.ErrStopped.Error()},
		},
		{
			name:   "no convergence is unavailable",
			ans:    socruntime.Answer{Kind: socruntime.Unavailable, Err: noConv},
			status: http.StatusInternalServerError,
			body:   PredictResponse{Kind: "unavailable", Error: noConv.Error()},
		},
		{
			name:   "other failure",
			ans:    socruntime.Answer{Kind: socruntime.Unavailable, Err: boom},
			status: http.StatusInternalServerError,
			body:   PredictResponse{Kind: "unavailable", Error: boom.Error()},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := StatusFor(tc.ans); got != tc.status {
				t.Fatalf("StatusFor = %d, want %d", got, tc.status)
			}
			if got := ToResponse(tc.ans); !reflect.DeepEqual(got, tc.body) {
				t.Fatalf("ToResponse = %+v, want %+v", got, tc.body)
			}
			rec := httptest.NewRecorder()
			WriteAnswer(rec, tc.ans)
			if rec.Code != tc.status {
				t.Fatalf("WriteAnswer status = %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
				t.Fatalf("Retry-After present = %v, want %v", got, tc.retryAfter)
			}
			var body PredictResponse
			if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(body, tc.body) {
				t.Fatalf("wire body = %+v, want %+v", body, tc.body)
			}
		})
	}
}

func TestParsePriority(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want server.Priority
		bad  bool
	}{
		{"", server.Interactive, false},
		{"interactive", server.Interactive, false},
		{"batch", server.Batch, false},
		{"best-effort", server.BestEffort, false},
		{"urgent", 0, true},
	} {
		got, err := ParsePriority(tc.in)
		if (err != nil) != tc.bad || got != tc.want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v, error %v", tc.in, got, err, tc.want, tc.bad)
		}
		if tc.bad && !strings.Contains(err.Error(), tc.in) {
			t.Errorf("ParsePriority(%q) error %q does not name the input", tc.in, err)
		}
	}
}

// decodeHandler answers with the decoded request, or the error Decode
// wrote.
func decodeHandler(def server.Priority) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, pri, ok := Decode(w, r, def)
		if !ok {
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"params": len(req.Params), "priority": int(pri)})
	}
}

// TestDecodeBoundsBody: a body past MaxBodyBytes is refused with 413
// instead of being decoded in full; malformed bodies stay 400s.
func TestDecodeBoundsBody(t *testing.T) {
	var big strings.Builder
	big.WriteString(`{"params":[1`)
	for big.Len() <= MaxBodyBytes+MaxBodyBytes/2 {
		big.WriteString(",1")
	}
	big.WriteString("]}")

	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"oversize", big.String(), http.StatusRequestEntityTooLarge},
		{"malformed", `{not json`, http.StatusBadRequest},
		{"bad priority", `{"priority":"urgent"}`, http.StatusBadRequest},
		{"ok", `{"params":[1,2,3]}`, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		decodeHandler(server.Interactive)(rec, httptest.NewRequest("POST", "/predict", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
		}
	}
}

// TestDecodeDefaultPriority: a body naming no priority takes the
// caller's default class; a named one overrides it.
func TestDecodeDefaultPriority(t *testing.T) {
	for _, tc := range []struct {
		body string
		want server.Priority
	}{
		{`{}`, server.Batch},
		{`{"priority":"interactive"}`, server.Interactive},
	} {
		rec := httptest.NewRecorder()
		decodeHandler(server.Batch)(rec, httptest.NewRequest("POST", "/predict/batch", strings.NewReader(tc.body)))
		var got struct{ Priority server.Priority }
		if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Priority != tc.want {
			t.Errorf("%s: priority = %v, want %v", tc.body, got.Priority, tc.want)
		}
	}
}
