// Package stacks defines the organization-independent socket interface of
// Figure 1 and the pieces every organization shares: the Sock blocking
// wrapper, the Netif link/IP wiring, the UDP host, the Engine bracket
// around TCP engine entry, and the TickTimers driver for the BSD 200/500 ms
// timers (scan or TCPWheel).
//
// The two monolithic baselines the paper measures against — the
// Ultrix-style in-kernel organization and the Mach/UX-style single server
// with mapped device — are one Shell. NewInKernel and NewSingleServer
// differ only in the cost policy they install (see policy in shell.go):
// names, ISS schedule, socket-call and Listen/Connect entry charges, page
// remap versus copy on write, the server wakeup when a frame reaches an
// empty input queue, and the reader wakeup on delivery. The paper's
// proposed user-level library organization lives in internal/core and
// implements the same interface over the same Engine and TickTimers, so
// experiments are an "apples to apples" comparison: the identical TCP/IP
// engine runs under all three, and only the structural costs differ.
package stacks

import (
	"errors"
	"fmt"

	"ulp/internal/kern"
	"ulp/internal/tcp"
)

// Options carries the per-connection knobs an application may set — the
// paper's §5 "canned options that determine certain characteristics of a
// protocol" (the simple form of application-specific specialization).
type Options struct {
	// SndBuf and RcvBuf size the socket buffers (0 = BSD default 4096).
	SndBuf, RcvBuf int
	// NoDelay disables the Nagle algorithm.
	NoDelay bool
	// NoDelayedAck acknowledges every segment immediately.
	NoDelayedAck bool
	// NoChecksum skips charging checksum time (trusted-link variant; the
	// engine still computes real checksums so corruption tests stay
	// honest — only the cost model is relieved, as a hardware-checksum
	// link would).
	NoChecksum bool
	// Backlog bounds concurrent handshakes held for a listener; a SYN
	// arriving beyond it is deterministically dropped (the client's
	// retransmission retries once capacity frees up). Only the user-level
	// organization's registry honours it (0 = registry.DefaultBacklog);
	// the monolithic Shell ignores it and holds every handshake.
	Backlog int
	// KeepAliveTicks enables keepalive probing after that many idle slow
	// ticks (500 ms each); 0 disables. With it, a dead peer or permanent
	// partition surfaces as ErrConnTimeout even on an idle connection.
	KeepAliveTicks int
	// RexmtR1 and RexmtR2 tune the RFC 1122 retransmission thresholds per
	// connection (see tcp.Config); 0 selects the defaults (3 and 12).
	// Lowering R2 makes a blackholed connection fail fast with
	// ErrConnTimeout instead of retrying for minutes — the per-connection
	// robustness policy a user-level stack can offer where a kernel
	// implementation has one global knob.
	RexmtR1, RexmtR2 int
}

// Stack is one protocol organization instantiated on one host.
type Stack interface {
	// Name identifies the organization ("userlib", "inkernel",
	// "singleserver").
	Name() string

	// Host returns the host this stack instance runs on.
	Host() *kern.Host

	// Listen binds and listens on a local TCP port. Called from an
	// application thread on this host.
	Listen(t *kern.Thread, port uint16, opts Options) (Listener, error)

	// Connect actively opens a connection. Called from an application
	// thread; blocks until established or failed.
	Connect(t *kern.Thread, remote tcp.Endpoint, opts Options) (Conn, error)
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a connection is established.
	Accept(t *kern.Thread) (Conn, error)
	// Close stops listening.
	Close(t *kern.Thread)
}

// Conn is an established connection with blocking semantics.
type Conn interface {
	// Read blocks until at least one byte (or EOF) is available; it
	// returns 0, nil at end of stream.
	Read(t *kern.Thread, p []byte) (int, error)
	// Write blocks until all of p is accepted by the send buffer.
	Write(t *kern.Thread, p []byte) (int, error)
	// Close performs an orderly release (FIN); it does not wait for the
	// peer.
	Close(t *kern.Thread) error
	// Stats exposes the protocol counters.
	Stats() tcp.Stats
	// State exposes the protocol state (diagnostics and tests).
	State() tcp.State
}

// Errors shared by the implementations.
var (
	ErrClosed      = errors.New("stacks: connection closed")
	ErrReset       = errors.New("stacks: connection reset by peer")
	ErrRefused     = errors.New("stacks: connection refused")
	ErrTimeout     = errors.New("stacks: connection timed out")
	ErrPortInUse   = errors.New("stacks: port in use")
	ErrUnreachable = errors.New("stacks: host unreachable")

	// ErrConnTimeout reports that an established connection was abandoned
	// after exhausting its R2 retransmission budget or its keepalive
	// probes (a dead peer or an unhealed partition). It wraps ErrTimeout,
	// so errors.Is(err, ErrTimeout) continues to match; blocked Read/Write/
	// Close calls observe it through the connection's closed state.
	ErrConnTimeout = fmt.Errorf("%w (retransmission/keepalive give-up)", ErrTimeout)

	// ErrRegistryUnavailable reports that the registry server did not
	// answer a control-plane RPC within its bounded retry budget. Callers
	// degrade gracefully (fail the connect/bind) instead of blocking
	// forever on a dead or wedged server.
	ErrRegistryUnavailable = errors.New("stacks: registry unavailable")

	// ErrAdmissionDenied reports that the registry's admission layer
	// refused a setup because the application domain already has its quota
	// of outstanding setups. The library backs off and retries; it reaches
	// applications only when the retry budget is exhausted too.
	ErrAdmissionDenied = errors.New("stacks: connection setup admission denied")
)

// MapError converts engine close reasons to API errors.
func MapError(err error) error {
	switch err {
	case nil:
		return nil
	case tcp.ErrReset:
		return ErrReset
	case tcp.ErrRefused:
		return ErrRefused
	case tcp.ErrTimeout, tcp.ErrKeepalive:
		return ErrConnTimeout
	}
	return err
}
