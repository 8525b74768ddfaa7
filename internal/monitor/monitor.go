// Package monitor implements the runtime side of reliability assessment
// the paper's conclusion calls out: "predicting the reliability of an
// assembly of services actually represents only one side of the
// reliability assessment ..., with the other side represented by
// appropriate monitoring activities to check whether the assembly of
// selected services will actually achieve the predicted reliability."
//
// A Monitor consumes invocation outcomes (success/failure) for a deployed
// service, maintains windowed and cumulative reliability estimates, and
// checks them against the engine's prediction two ways:
//
//   - a Wilson confidence-interval check (conservative, fixed sample), and
//   - Wald's sequential probability ratio test (SPRT), which detects a
//     degradation from the predicted reliability to a specified degraded
//     level with bounded error rates using far fewer observations.
package monitor

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by this package.
var (
	// ErrBadConfig is returned for invalid probabilities or rates.
	ErrBadConfig = errors.New("monitor: invalid configuration")
	// ErrBadSnapshot is returned by Restore for inconsistent snapshots.
	ErrBadSnapshot = errors.New("monitor: invalid snapshot")
)

// Verdict is the state of a reliability check.
type Verdict int

// Verdicts.
const (
	// Undecided means the evidence is not yet conclusive.
	Undecided Verdict = iota + 1
	// Meeting means the service is meeting its predicted reliability.
	Meeting
	// Violating means the service is running below its predicted
	// reliability.
	Violating
)

func (v Verdict) String() string {
	switch v {
	case Undecided:
		return "undecided"
	case Meeting:
		return "meeting prediction"
	case Violating:
		return "violating prediction"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Config parameterizes a Monitor.
type Config struct {
	// Predicted is the reliability the engine predicted (H0).
	Predicted float64
	// Degraded is the degraded reliability the SPRT should detect (H1);
	// must be below Predicted. Zero defaults to 0.9 * Predicted.
	Degraded float64
	// Alpha is the SPRT false-alarm rate (default 0.01).
	Alpha float64
	// Beta is the SPRT missed-detection rate (default 0.01).
	Beta float64
	// Window is the sliding-window length for the windowed estimate
	// (default 1000).
	Window int
}

func (c Config) withDefaults() (Config, error) {
	if c.Predicted <= 0 || c.Predicted >= 1 {
		return c, fmt.Errorf("%w: predicted reliability %g", ErrBadConfig, c.Predicted)
	}
	if c.Degraded == 0 {
		c.Degraded = 0.9 * c.Predicted
	}
	if c.Degraded <= 0 || c.Degraded >= c.Predicted {
		return c, fmt.Errorf("%w: degraded reliability %g (predicted %g)", ErrBadConfig, c.Degraded, c.Predicted)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Alpha <= 0 || c.Alpha >= 1 || c.Beta <= 0 || c.Beta >= 1 {
		return c, fmt.Errorf("%w: alpha=%g beta=%g", ErrBadConfig, c.Alpha, c.Beta)
	}
	if c.Window == 0 {
		c.Window = 1000
	}
	if c.Window < 1 {
		return c, fmt.Errorf("%w: window %d", ErrBadConfig, c.Window)
	}
	return c, nil
}

// Monitor tracks observed reliability against a prediction.
type Monitor struct {
	cfg Config

	total     int
	successes int

	ring    []bool
	ringPos int
	ringLen int
	winSucc int

	// SPRT state: cumulative log likelihood ratio log(P1/P0) and the
	// decision thresholds.
	llr     float64
	upper   float64 // accept H1 (violating)
	lower   float64 // accept H0 (meeting)
	decided Verdict

	llSucc float64 // log(p1/p0) per success
	llFail float64 // log((1-p1)/(1-p0)) per failure
}

// New returns a Monitor for the given configuration.
func New(cfg Config) (*Monitor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:     cfg,
		ring:    make([]bool, cfg.Window),
		upper:   math.Log((1 - cfg.Beta) / cfg.Alpha),
		lower:   math.Log(cfg.Beta / (1 - cfg.Alpha)),
		decided: Undecided,
		llSucc:  math.Log(cfg.Degraded / cfg.Predicted),
		llFail:  math.Log((1 - cfg.Degraded) / (1 - cfg.Predicted)),
	}, nil
}

// Record consumes one invocation outcome.
func (m *Monitor) Record(success bool) {
	m.total++
	if success {
		m.successes++
	}
	// Sliding window.
	if m.ringLen == len(m.ring) {
		if m.ring[m.ringPos] {
			m.winSucc--
		}
	} else {
		m.ringLen++
	}
	m.ring[m.ringPos] = success
	if success {
		m.winSucc++
	}
	m.ringPos = (m.ringPos + 1) % len(m.ring)

	// SPRT update (only until a decision is reached; a decided test stays
	// decided — callers reset to re-arm).
	if m.decided == Undecided {
		if success {
			m.llr += m.llSucc
		} else {
			m.llr += m.llFail
		}
		if m.llr >= m.upper {
			m.decided = Violating
		} else if m.llr <= m.lower {
			m.decided = Meeting
		}
	}
}

// Total returns the number of recorded outcomes.
func (m *Monitor) Total() int { return m.total }

// Cumulative returns the all-time observed reliability (0 with no data).
func (m *Monitor) Cumulative() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.successes) / float64(m.total)
}

// Windowed returns the sliding-window observed reliability (0 with no
// data).
func (m *Monitor) Windowed() float64 {
	if m.ringLen == 0 {
		return 0
	}
	return float64(m.winSucc) / float64(m.ringLen)
}

// SPRT returns the sequential test's current verdict.
func (m *Monitor) SPRT() Verdict { return m.decided }

// ResetSPRT re-arms the sequential test (e.g. after a deployment fix),
// keeping the cumulative and windowed statistics.
func (m *Monitor) ResetSPRT() {
	m.llr = 0
	m.decided = Undecided
}

// Snapshot is a self-contained checkpoint of a Monitor: configuration,
// cumulative counts, the sliding window in chronological order, and the
// SPRT state. Supervisors checkpoint monitors across rebinds (and process
// restarts) so accumulated SPRT evidence is never lost; all fields are
// exported so a Snapshot serializes with encoding/json as-is.
type Snapshot struct {
	// Config is the monitor's (defaulted) configuration.
	Config Config
	// Total and Successes are the cumulative outcome counts.
	Total     int
	Successes int
	// Window holds the sliding-window outcomes, oldest first (at most
	// Config.Window entries).
	Window []bool
	// LLR is the SPRT's cumulative log likelihood ratio.
	LLR float64
	// Decided is the SPRT's verdict.
	Decided Verdict
}

// Snapshot captures the monitor's complete state.
func (m *Monitor) Snapshot() Snapshot {
	win := make([]bool, 0, m.ringLen)
	start := 0
	if m.ringLen == len(m.ring) {
		start = m.ringPos
	}
	for i := 0; i < m.ringLen; i++ {
		win = append(win, m.ring[(start+i)%len(m.ring)])
	}
	return Snapshot{
		Config:    m.cfg,
		Total:     m.total,
		Successes: m.successes,
		Window:    win,
		LLR:       m.llr,
		Decided:   m.decided,
	}
}

// validate checks a snapshot's internal consistency before Restore
// rebuilds from it.
func (s Snapshot) validate() error {
	cfg, err := s.Config.withDefaults()
	if err != nil {
		return err
	}
	if s.Total < 0 || s.Successes < 0 || s.Successes > s.Total {
		return fmt.Errorf("%w: %d successes of %d outcomes", ErrBadSnapshot, s.Successes, s.Total)
	}
	if len(s.Window) > cfg.Window || len(s.Window) > s.Total {
		return fmt.Errorf("%w: window of %d entries (config window %d, total %d)", ErrBadSnapshot, len(s.Window), cfg.Window, s.Total)
	}
	switch s.Decided {
	case Undecided, Meeting, Violating:
	default:
		return fmt.Errorf("%w: verdict %d", ErrBadSnapshot, int(s.Decided))
	}
	return nil
}

// Restore rebuilds a Monitor from a snapshot. The restored monitor
// continues exactly where the snapshot was taken: same estimates, same
// SPRT evidence, same verdict — and ResetSPRT keeps its usual semantics
// (re-arm the sequential test, keep the statistics).
func Restore(s Snapshot) (*Monitor, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	m, err := New(s.Config)
	if err != nil {
		return nil, err
	}
	for i, ok := range s.Window {
		m.ring[i] = ok
		if ok {
			m.winSucc++
		}
	}
	m.ringLen = len(s.Window)
	m.ringPos = len(s.Window) % len(m.ring)
	m.total = s.Total
	m.successes = s.Successes
	m.llr = s.LLR
	m.decided = s.Decided
	return m, nil
}

// IntervalCheck compares the prediction against the cumulative Wilson
// interval at the given z quantile (e.g. 1.96): Violating if the whole
// interval lies below the prediction, Meeting if the prediction is inside
// or below, Undecided with fewer than min observations.
func (m *Monitor) IntervalCheck(z float64, min int) Verdict {
	if m.total < min || m.total == 0 {
		return Undecided
	}
	p := m.Cumulative()
	n := float64(m.total)
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	hi := center + half
	if hi < m.cfg.Predicted {
		return Violating
	}
	return Meeting
}
