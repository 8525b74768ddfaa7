// Typed error taxonomy of the evaluation engine. Every failure surfaced
// by a public entry point matches exactly one of the sentinels below (or
// one of the construction-time errors of internal/model) under errors.Is,
// so callers can program against failure classes instead of message text:
//
//	ErrCanceled          the caller's context expired mid-evaluation
//	ErrNonFinite         a law, parameter, or probability produced NaN/±Inf
//	ErrNoConvergence     an iterative solve exhausted its budget
//	ErrUnresolvedBinding a (caller, role) pair resolved to nothing usable
//	ErrDefectiveFlow     the flow's transition structure is not a valid
//	                     absorbing chain (bad probabilities, bad row sums,
//	                     states that cannot reach absorption)
//	ErrNotCompilable     the assembly is outside the compiled engine's domain
//	ErrPanic             an evaluation panicked and was isolated
//
// Lower layers (linalg, markov, model) keep their own sentinels; classify
// maps them onto this taxonomy at the entry boundaries so both vocabularies
// stay matchable through the same error chain.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"socrel/internal/linalg"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// Taxonomy sentinels (ErrRecursiveAssembly, ErrNoConvergence,
// ErrInvalidSharing, and ErrBadTransition live in engine.go;
// ErrNotCompilable in compile.go).
var (
	// ErrCanceled is returned when the caller's context is canceled or its
	// deadline expires during an evaluation. It always also matches the
	// originating context.Canceled / context.DeadlineExceeded.
	ErrCanceled = errors.New("core: evaluation canceled")
	// ErrUnresolvedBinding is returned when a requested role cannot be
	// resolved to a concrete service: the resolver's Bind failed with
	// something other than model.ErrNoBinding, or the bound (or defaulted)
	// provider / connector name has no definition.
	ErrUnresolvedBinding = errors.New("core: unresolved binding")
	// ErrDefectiveFlow is returned when a flow's transition structure does
	// not form a valid absorbing chain: probabilities outside [0,1], row
	// sums away from one, or states that cannot reach absorption.
	ErrDefectiveFlow = errors.New("core: defective flow")
	// ErrPanic is returned (as a *PanicError) when an evaluation panicked
	// and the panic was isolated to that evaluation.
	ErrPanic = errors.New("core: evaluation panicked")
	// ErrNonFinite aliases model.ErrNonFinite so non-finite values detected
	// anywhere — in a failure law by the model layer or in a transition
	// probability by the engine — match the same sentinel.
	ErrNonFinite = model.ErrNonFinite
)

// PanicError is the isolated form of a panic that escaped an evaluation:
// the engine's worker pools and entry points recover it, convert it to
// this error for the offending invocation only, and let sibling
// evaluations complete. It matches ErrPanic via errors.Is.
type PanicError struct {
	// Value is the value the evaluation panicked with.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: evaluation panicked: %v", e.Value)
}

// Is reports whether target is ErrPanic.
func (e *PanicError) Is(target error) bool { return target == ErrPanic }

// EvalError locates a failure in the evaluation tree: Path lists the
// services (and "state:<name>" flow states) from the evaluation root down
// to where the failure occurred, outermost first. It wraps the underlying
// taxonomy error, so errors.Is / errors.As see through it.
type EvalError struct {
	Path []string
	Err  error
}

func (e *EvalError) Error() string {
	return "core: at " + strings.Join(e.Path, "/") + ": " + e.Err.Error()
}

func (e *EvalError) Unwrap() error { return e.Err }

// atPath prepends one path element to err, promoting it to an *EvalError
// on first use. Prepending mutates in place: an evaluation error unwinds
// through a single goroutine and only failures (never memoized) carry one,
// so the value has a single owner.
func atPath(err error, elem ...string) error {
	if err == nil {
		return nil
	}
	if ee, ok := err.(*EvalError); ok {
		ee.Path = append(elem, ee.Path...)
		return ee
	}
	return &EvalError{Path: elem, Err: err}
}

// classify maps lower-layer failures onto the package taxonomy at the
// public entry boundaries. Errors already carrying a taxonomy sentinel
// pass through unchanged; context expiry, solver non-convergence, and
// chain-structure failures gain the matching core sentinel.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if errors.Is(err, ErrCanceled) {
			return err
		}
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, linalg.ErrNoConvergence):
		if errors.Is(err, ErrNoConvergence) {
			return err
		}
		return fmt.Errorf("%w: %w", ErrNoConvergence, err)
	case errors.Is(err, markov.ErrInvalidProbability) || errors.Is(err, markov.ErrNotAbsorbing):
		if errors.Is(err, ErrDefectiveFlow) {
			return err
		}
		return fmt.Errorf("%w: %w", ErrDefectiveFlow, err)
	default:
		return err
	}
}

// ErrorClass names the taxonomy class of err with a short stable slug for
// logs, CLIs, and metrics labels: "canceled", "panic", "non-finite",
// "no-convergence", "unresolved-binding", "defective-flow",
// "not-compilable", "recursive-assembly", "invalid-sharing",
// "invalid-service", "unknown-service", "no-binding", "arity",
// "transient", or "unclassified". A nil error returns "".
//
// The cases are ordered so that the most specific sentinel in a chain
// wins: ErrNonFinite (which aliases model.ErrNonFinite) is checked before
// the broader model construction errors, and ErrBadTransition reports as
// "defective-flow" through its wrapped sentinel. model.ErrTransient is
// checked before "unresolved-binding", "unknown-service", "no-binding"
// and "arity": a transient lookup or bind failure also carries one of
// those sentinels, and it is a fault of the provider at that moment, not
// of the request or the model.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrPanic):
		return "panic"
	case errors.Is(err, ErrNonFinite):
		return "non-finite"
	case errors.Is(err, ErrNoConvergence) || errors.Is(err, linalg.ErrNoConvergence):
		return "no-convergence"
	case errors.Is(err, model.ErrTransient):
		return "transient"
	case errors.Is(err, ErrUnresolvedBinding):
		return "unresolved-binding"
	case errors.Is(err, ErrDefectiveFlow) || errors.Is(err, markov.ErrInvalidProbability) || errors.Is(err, markov.ErrNotAbsorbing):
		return "defective-flow"
	case errors.Is(err, ErrNotCompilable):
		return "not-compilable"
	case errors.Is(err, ErrRecursiveAssembly):
		return "recursive-assembly"
	case errors.Is(err, ErrInvalidSharing):
		return "invalid-sharing"
	case errors.Is(err, model.ErrInvalidService):
		return "invalid-service"
	case errors.Is(err, model.ErrUnknownService):
		return "unknown-service"
	case errors.Is(err, model.ErrNoBinding):
		return "no-binding"
	case errors.Is(err, model.ErrArity):
		return "arity"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "unclassified"
	}
}

// guardPfail runs one evaluation with panic isolation: a panic in f is
// recovered into a *PanicError instead of unwinding into the caller (or
// killing a worker pool's goroutine).
func guardPfail(f func() (float64, error)) (p float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = 0, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}
