package symbol

// This file collects the package's deprecated entry points. They are all
// thin forwarding wrappers around the current API — Load for compilation,
// RunContext for execution, ScheduleWith for compaction — kept so existing
// callers keep compiling and behaving identically. New code should not use
// anything in this file.

import "context"

// Compile parses and compiles src (which must define main/0) with default
// options.
//
// Deprecated: use Load, the single compile/load entry point. Compile
// remains as a thin wrapper and behaves identically to
// Load(context.Background(), []byte(src)).
func Compile(src string) (*Program, error) {
	return CompileWith(src, DefaultOptions())
}

// CompileWith parses and compiles src with explicit options.
//
// Deprecated: use Load with WithCompileOptions. CompileWith remains as a
// thin wrapper and behaves identically.
func CompileWith(src string, opts Options) (*Program, error) {
	return Load(context.Background(), []byte(src), WithCompileOptions(opts))
}

// CompileQuery compiles a knowledge base together with one goal into a
// runnable Program (see WithGoal for the synthetic main/0 semantics and
// binding write-out).
//
// Deprecated: use Load with WithGoal. CompileQuery remains as a thin
// wrapper and behaves identically.
func CompileQuery(kbSrc, goal string) (*Program, error) {
	return Load(context.Background(), []byte(kbSrc), WithGoal(goal))
}

// Run executes the program sequentially and returns its observable result.
//
// Deprecated: use RunContext, which adds cancellation and functional
// options. Run remains as a thin wrapper and behaves identically.
func (p *Program) Run() (*Result, error) {
	return p.RunWith(RunOptions{})
}

// RunWith executes the program sequentially under explicit resource bounds.
// Resource faults surface as typed errors (errors.Is against ErrHeapOverflow
// and friends) unless the program catches them with catch/3.
//
// Deprecated: use RunContext, which adds cancellation and functional
// options. RunWith remains as a thin wrapper and behaves identically.
func (p *Program) RunWith(opts RunOptions) (*Result, error) {
	return p.RunContext(context.Background(), WithOptions(opts))
}

// Schedule profiles the program (if needed) and compacts it for conf.
//
// Deprecated: use ScheduleWith, which takes functional options instead of a
// bare option struct. Schedule remains and behaves identically.
func (p *Program) Schedule(conf MachineConfig, opts ScheduleOptions) (*Scheduled, error) {
	return p.ScheduleWith(conf, WithScheduleOptions(opts))
}
