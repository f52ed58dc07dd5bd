package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"steac/internal/core"
	"steac/internal/envelope"
	"steac/internal/sched"
	"steac/internal/stil"
)

// The daemon's v1 error contract: every non-2xx response carries the wire
// envelope {"error": <human message>, "code": <machine name>}.  The code
// names one of the package sentinels below, so a programmatic caller — the
// serve.Client in client.go is the reference implementation — can
// reconstruct the typed error across the wire and branch on errors.Is
// instead of string-matching HTTP bodies.

// ErrQueueFull is the admission-control sentinel: the request was
// well-formed but the caller's fair-queue lane has no room.  The HTTP
// layer maps it to 429 Too Many Requests with a Retry-After hint.
var ErrQueueFull = errors.New("serve: queue full")

// ErrDraining is returned for new work submitted after Drain began; the
// HTTP layer maps it to 503 Service Unavailable so load balancers move on
// while in-flight requests finish.
var ErrDraining = errors.New("serve: draining")

// ErrUnauthorized is the identity sentinel: the daemon runs with a tenant
// set and the request carried no API key, or one that matches no tenant.
// The HTTP layer maps it to 401 Unauthorized.
var ErrUnauthorized = errors.New("serve: unauthorized")

// ErrQuotaExceeded is the per-tenant admission sentinel: the caller was
// authenticated but its token-bucket rate limit is empty or its
// concurrent-job quota is already in use.  The HTTP layer maps it to 429
// Too Many Requests with a Retry-After hint.  Distinct from ErrQueueFull,
// which reports pressure on the queue itself rather than on the tenant's
// allowance.
var ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")

// ErrNotFound is the lookup sentinel (no such job, or a job owned by a
// different tenant — ownership is not disclosed).  Maps to 404.
var ErrNotFound = errors.New("serve: not found")

// ErrBadRequest is the client-fault sentinel: malformed bodies, unknown
// names, infeasible budgets.  The concrete message travels alongside it.
// Maps to 400.
var ErrBadRequest = errors.New("serve: bad request")

// errBadRequest marks client-side failures (malformed requests, unknown
// names) so the HTTP layer can answer 400 instead of 500.  It matches
// ErrBadRequest under errors.Is so clients need only the sentinel.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }
func (e errBadRequest) Is(target error) bool {
	return target == ErrBadRequest
}

func badRequestf(format string, args ...interface{}) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// v1 is the daemon's error table — sentinel → wire code → status — and
// with it the v1 surface's writer, bounded strict body decoder and client
// call (package envelope).  Unmatched errors answer 500 "internal".
var v1 = &envelope.Surface{
	Name:   "serve",
	Strict: true,
	Codes: []envelope.Code{
		{Name: "unauthorized", Status: http.StatusUnauthorized, Err: ErrUnauthorized},
		{Name: "quota_exceeded", Status: http.StatusTooManyRequests, Err: ErrQuotaExceeded},
		{Name: "queue_full", Status: http.StatusTooManyRequests, Err: ErrQueueFull},
		{Name: "draining", Status: http.StatusServiceUnavailable, Err: ErrDraining},
		{Name: "not_found", Status: http.StatusNotFound, Err: ErrNotFound},
		// Client-side failures: bad requests, STIL syntax, infeasible
		// budgets, soft cores asked to be verified or inserted.
		{Name: "bad_request", Status: http.StatusBadRequest, Err: ErrBadRequest,
			Also: []error{stil.ErrSyntax, core.ErrBudgetExceeded, sched.ErrInfeasible, core.ErrSoftCore}},
		{Name: "timeout", Status: http.StatusGatewayTimeout, Err: context.DeadlineExceeded},
		// The client went away; the status is academic but 499-style
		// codes are non-standard, so report the nearest real one.
		{Name: "canceled", Status: http.StatusServiceUnavailable, Err: context.Canceled},
	},
}
