// Interrupt handling shared by the ntier commands. A first SIGINT or
// SIGTERM cancels the command's context so sweeps stop at a
// journal-clean trial boundary; a second signal exits immediately for
// operators who really mean it. Commands that honor the context exit
// with the conventional interrupted status 130.

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// exitInterrupted is the conventional exit status for a command stopped
// by SIGINT (128 + signal number 2).
const exitInterrupted = 130

// withSignalContext returns a context canceled on the first SIGINT or
// SIGTERM. The second signal force-exits with exitInterrupted — the
// escape hatch when graceful shutdown itself wedges. The returned stop
// function releases the signal handler; it is safe to call more than
// once.
func withSignalContext(parent context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	quit := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-quit:
			return
		}
		select {
		case <-sigc:
			os.Exit(exitInterrupted)
		case <-quit:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sigc)
			close(quit)
			cancel()
		})
	}
	return ctx, stop
}

// exitCode maps a command's terminal error to its exit status: 0 for
// nil, exitInterrupted for context cancellation, 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		return exitInterrupted
	default:
		return 1
	}
}

// resumeHint returns the one-line hint printed when an interrupted
// journaled run can be continued, or "" when no state dir was in use.
func resumeHint(stateDir string) string {
	if stateDir == "" {
		return ""
	}
	return fmt.Sprintf("interrupted; resume with -state-dir %s -resume", stateDir)
}
