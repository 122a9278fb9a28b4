package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"symbol"
)

// Tenant is a named budget envelope. Every request executes under exactly
// one tenant (the default if the X-Symbol-Tenant header is absent); the
// tenant's fields are ceilings, so a request header can tighten a budget
// for one query but never raise it past what the tenant was provisioned.
// Zero fields defer to the engine defaults.
type Tenant struct {
	Name string `json:"name"`

	// MaxSteps bounds the sequential ICI budget per query.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// MaxConcurrent bounds how many of this tenant's requests may hold
	// admission slots at once (0 = unlimited). Checked before the global
	// admission gate; past it requests shed with 429 tenant_quota. Parked
	// paginated cursors keep counting until their stream finishes.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Timeout bounds one query's wall clock (also the ceiling for the
	// X-Symbol-Timeout header). Zero falls back to the server's
	// RequestTimeout.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Memory-area ceilings, in words (0 = engine default).
	HeapWords  int64 `json:"heap_words,omitempty"`
	EnvWords   int64 `json:"env_words,omitempty"`
	CPWords    int64 `json:"cp_words,omitempty"`
	TrailWords int64 `json:"trail_words,omitempty"`
	PDLWords   int64 `json:"pdl_words,omitempty"`
}

// Request headers a caller can use to tighten its tenant budgets.
const (
	HeaderTenant   = "X-Symbol-Tenant"
	HeaderMaxSteps = "X-Symbol-Max-Steps"
	HeaderTimeout  = "X-Symbol-Timeout"
)

// badRequestError marks client mistakes detected before admission (bad
// header syntax, unknown tenant); the handler answers 400/403 instead of a
// fault-mapped status.
type badRequestError struct {
	status int
	msg    string
}

func (e *badRequestError) Error() string { return e.msg }

// tenantOf resolves the request's tenant. An unknown name is refused (403)
// rather than silently downgraded to the default envelope: a typo in a
// tenant name must not hand out default budgets.
func (s *Server) tenantOf(r *http.Request) (Tenant, error) {
	name := r.Header.Get(HeaderTenant)
	if name == "" {
		return s.cfg.DefaultTenant, nil
	}
	if t, ok := s.cfg.Tenants[name]; ok {
		t.Name = name
		return t, nil
	}
	return Tenant{}, &badRequestError{
		status: http.StatusForbidden,
		msg:    fmt.Sprintf("unknown tenant %q", name),
	}
}

// clampCeiling merges a requested value into a ceiling: the request may
// tighten (lower) the budget but never exceed the tenant's provision.
func clampCeiling(ceiling, requested int64) int64 {
	if requested <= 0 {
		return ceiling
	}
	if ceiling > 0 && requested > ceiling {
		return ceiling
	}
	return requested
}

// budget computes the run's options and wall-clock timeout: tenant ceilings
// first, per-request headers clamped under them.
func (s *Server) budget(r *http.Request, t Tenant) (symbol.RunOptions, time.Duration, error) {
	opts := symbol.RunOptions{
		MaxSteps:   t.MaxSteps,
		HeapWords:  t.HeapWords,
		EnvWords:   t.EnvWords,
		CPWords:    t.CPWords,
		TrailWords: t.TrailWords,
		PDLWords:   t.PDLWords,
	}
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = s.cfg.RequestTimeout
	}
	if h := r.Header.Get(HeaderMaxSteps); h != "" {
		n, err := strconv.ParseInt(h, 10, 64)
		if err != nil || n <= 0 {
			return opts, 0, &badRequestError{
				status: http.StatusBadRequest,
				msg:    fmt.Sprintf("bad %s %q: want a positive integer", HeaderMaxSteps, h),
			}
		}
		opts.MaxSteps = clampCeiling(t.MaxSteps, n)
	}
	if h := r.Header.Get(HeaderTimeout); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return opts, 0, &badRequestError{
				status: http.StatusBadRequest,
				msg:    fmt.Sprintf("bad %s %q: want a positive Go duration", HeaderTimeout, h),
			}
		}
		if d < timeout {
			timeout = d
		}
	}
	return opts, timeout, nil
}
