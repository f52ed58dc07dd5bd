package core

import "errors"

// ErrBudgetExceeded marks a flow that failed because the chip's test
// resource budget (pin counts, power ceiling) admits no feasible schedule.
// It wraps the scheduler's own sched.ErrInfeasible, so callers can match
// either sentinel with errors.Is; serve maps it to a client error (the
// request was well-formed, the budget just doesn't work) rather than a
// server fault.
var ErrBudgetExceeded = errors.New("steac: test resource budget exceeded")

// ErrSoftCore marks a flow that asks to verify or insert a soft core.  A
// soft core's scan chains are a scheduling view (the scheduler may
// reconfigure them), not the physical chains the tester model and the
// wrapper generator need, so such a flow is refused as a client error
// naming the core.  Scheduling alone still accepts soft cores.
var ErrSoftCore = errors.New("steac: soft core cannot be verified or inserted")
