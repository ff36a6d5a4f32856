package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// A workload is one closed-loop traffic mix: a server app on host 0 and
// client loops on hosts 1..clientHosts, each loop waiting for its own
// operation to finish before it starts the next. Hosts and loops are
// simulated threads, never OS threads.
type workload struct {
	name string
	cfg  ulp.Config
	// clientHosts × loopsPerHost client loops; every loop of a host runs in
	// that host's single client application.
	clientHosts, loopsPerHost int
	// ops is the number of timed operations per round; warm is the number
	// each loop completes before timing starts.
	ops, warm int
	// repeatable records the determinism probe's verdict (two processes,
	// one seed, bit-identical virtual metrics); only repeatable workloads
	// can check that a traced round equals an untraced one.
	repeatable bool
	// serve handles one accepted connection on the accept thread; wrap it
	// in spawned to give each connection a server thread of its own.
	serve func(r *round, t *kern.Thread, c stacks.Conn)
	// client runs one client loop until r.stop.
	client func(r *round, t *kern.Thread, app *ulp.App, loop int)
}

const (
	blockSize = 4096 // bulk write and fleet response size
	rpcSize   = 64   // rpc request and echo size
	reqSize   = 128  // fleet request size
	hdrSize   = 8    // op id (or flow and block number) heading each message
)

var workloads = []*workload{
	{
		// Table 2's data path at full segment size on the Ethernet: the
		// registry is idle after four setups and cost is per byte.
		name: "bulk", cfg: ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet},
		clientHosts: 1, loopsPerHost: 4, ops: 8192, warm: 16,
		serve: spawned(bulkSink), client: bulkSource,
	},
	{
		// Table 3's path at the smallest message on the AN1: the same layers
		// as bulk, but cost is per packet and the server CPU saturates.
		name: "rpc", cfg: ulp.Config{Org: ulp.OrgUserLib, Net: ulp.AN1},
		clientHosts: 1, loopsPerHost: 8, ops: 24000, warm: 20,
		serve: spawned(rpcEcho), client: rpcClient,
	},
	{
		// Table 4's control plane at scale with the data path idle: registry
		// handshake and handoff, kernel IPC, server TIME_WAIT scan timers.
		// 3000 connections a round leave each client registry about 200
		// never-finished teardown entries, below its 512-entry dedup bound.
		// Past that bound the registry evicts a connect's reply as soon as
		// it is sent, a routine retry of that connect runs again, and the
		// second connection leaks (10000 a round fail the audit on seed 5).
		// README.md has the details.
		name: "churn", cfg: ulp.Config{Org: ulp.OrgUserLib, Net: ulp.AN1, Hosts: 17},
		clientHosts: 16, loopsPerHost: 4, ops: 3000, warm: 4,
		serve: churnServe, client: churnClient,
	},
	{
		// Every opt-in mode at once: switch, timer wheels, wide ephemeral
		// range, sharded registry, zero-copy rings; data on every connection.
		name: "fleet", cfg: ulp.Config{
			Org: ulp.OrgUserLib, Net: ulp.AN1, Hosts: 9,
			Switch:      &wire.SwitchConfig{Latency: time.Microsecond},
			TimerWheel:  true,
			EphemeralLo: 1024, EphemeralHi: 60000,
			RegistryShards: 4,
			ZeroCopyRx:     true,
		},
		clientHosts: 8, loopsPerHost: 4, ops: 2500, warm: 2, repeatable: true,
		serve: spawned(fleetServe), client: fleetClient,
	},
}

// spawned runs serve on a server thread of its own per connection.
func spawned(serve func(*round, *kern.Thread, stacks.Conn)) func(*round, *kern.Thread, stacks.Conn) {
	return func(r *round, _ *kern.Thread, c stacks.Conn) {
		r.serving++
		r.srv.Go("conn", func(t *kern.Thread) {
			serve(r, t, c)
			r.serving--
		})
	}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// bulkSource writes 4 KiB blocks on one long-lived flow. Each block heads
// with its flow and block number; the rest is seeded pattern.
func bulkSource(r *round, t *kern.Thread, app *ulp.App, flow int) {
	c, err := r.connect(t, app, 0)
	if err != nil {
		r.fail(flow, "bulk connect: %v", err)
		return
	}
	buf := make([]byte, blockSize)
	for k := 0; !r.stop; k++ {
		op := r.nextOp()
		r.fillBlock(buf, flow, k)
		r.sentAt[flow] = append(r.sentAt[flow], r.w.Now())
		r.sentOp[flow] = append(r.sentOp[flow], op)
		if err := r.write(t, c, buf, op, 0); err != nil {
			r.fail(flow, "bulk write: %v", err)
			break
		}
		r.written[flow]++
	}
	r.close(t, c, 0, 0)
}

// bulkSink reassembles blocks, checks each against the pattern, and counts
// a block as one op when its last byte is read.
func bulkSink(r *round, t *kern.Thread, c stacks.Conn) {
	rb := make([]byte, blockSize)
	blk := make([]byte, blockSize)
	want := make([]byte, blockSize)
	fill, flow, k := 0, -1, 0
	op := r.nextOp()
	for {
		parent := int64(0)
		if flow >= 0 && k < len(r.sentOp[flow]) {
			parent = r.sentOp[flow][k]
		}
		n, err := r.read(t, c, rb, op, parent)
		if err != nil {
			r.fail(max(flow, 0), "bulk read: %v", err)
			break
		}
		if n == 0 {
			break
		}
		for p := rb[:n]; len(p) > 0; {
			m := copy(blk[fill:], p)
			fill, p = fill+m, p[m:]
			if fill < blockSize {
				continue
			}
			fill = 0
			if flow < 0 {
				flow = int(binary.BigEndian.Uint32(blk))
				if flow >= len(r.sentAt) {
					r.fail(0, "bulk: block names flow %d", flow)
					r.close(t, c, op, 0)
					return
				}
			}
			r.fillBlock(want, flow, k)
			if r.corrupted() {
				blk[hdrSize] ^= 0xff
			}
			if !bytes.Equal(blk, want) {
				r.fail(flow, "bulk: flow %d block %d differs from its pattern", flow, k)
			} else {
				r.done(flow, r.w.Now()-r.sentAt[flow][k], blockSize)
			}
			k++
		}
	}
	switch {
	case fill != 0:
		r.fail(max(flow, 0), "bulk: flow %d ends inside a block (%d stray bytes)", flow, fill)
	case flow >= 0 && k != r.written[flow]:
		r.fail(flow, "bulk: flow %d delivered %d of %d blocks", flow, k, r.written[flow])
	}
	r.close(t, c, op, 0)
}

// rpcClient sends 64 B requests on one persistent connection and waits for
// each echo.
func rpcClient(r *round, t *kern.Thread, app *ulp.App, loop int) {
	c, err := r.connect(t, app, 0)
	if err != nil {
		r.fail(loop, "rpc connect: %v", err)
		return
	}
	req := make([]byte, rpcSize)
	resp := make([]byte, rpcSize)
	for !r.stop {
		op := r.nextOp()
		r.fillMsg(req, op)
		start := r.w.Now()
		if err := r.write(t, c, req, op, 0); err != nil {
			r.fail(loop, "rpc write: %v", err)
			break
		}
		if err := r.readFull(t, c, resp, op, 0); err != nil {
			r.fail(loop, "rpc read: %v", err)
			break
		}
		if r.corrupted() {
			resp[hdrSize] ^= 0xff
		}
		if !bytes.Equal(req, resp) {
			r.fail(loop, "rpc: echo of op %d differs from its request", op)
			continue
		}
		r.done(loop, r.w.Now()-start, rpcSize)
	}
	r.close(t, c, 0, 0)
}

// rpcEcho returns every 64 B request unchanged until the client closes.
func rpcEcho(r *round, t *kern.Thread, c stacks.Conn) {
	buf := make([]byte, rpcSize)
	for {
		op := r.nextOp()
		if err := r.readFull(t, c, buf, op, 0); err != nil {
			break
		}
		if err := r.write(t, c, buf, op, int64(binary.BigEndian.Uint64(buf))); err != nil {
			break
		}
	}
	r.close(t, c, 0, 0)
}

// churnClient opens connections with no payload: connect, read until the
// server's FIN, close. One connection is one op, timed Connect entry to
// return.
func churnClient(r *round, t *kern.Thread, app *ulp.App, loop int) {
	rb := make([]byte, 64)
	for !r.stop {
		op := r.nextOp()
		start := r.w.Now()
		c, err := r.connect(t, app, op)
		if err != nil {
			r.fail(loop, "churn connect: %v", err)
			continue
		}
		setup := r.w.Now() - start
		n, err := r.read(t, c, rb, op, 0)
		if r.corrupted() {
			n = 1
		}
		r.close(t, c, op, 0)
		if err != nil || n != 0 {
			r.fail(loop, "churn: op %d read (%d, %v) before EOF", op, n, err)
			continue
		}
		r.done(loop, setup, 0)
	}
}

// churnServe closes at once, so TIME_WAIT stays on the server host.
func churnServe(r *round, t *kern.Thread, c stacks.Conn) {
	r.close(t, c, r.nextOp(), 0)
}

// fleetClient runs one transaction per connection: a 128 B request, a 4 KiB
// response the server derives from the request's op id, then the server's
// FIN. One transaction is one op, timed Connect entry to EOF.
func fleetClient(r *round, t *kern.Thread, app *ulp.App, loop int) {
	req := make([]byte, reqSize)
	resp := make([]byte, blockSize+1) // one spare byte catches an overlong reply
	want := make([]byte, blockSize)
	for !r.stop {
		op := r.nextOp()
		start := r.w.Now()
		c, err := r.connect(t, app, op)
		if err != nil {
			r.fail(loop, "fleet connect: %v", err)
			continue
		}
		setup := r.w.Now() - start
		r.fillMsg(req, op)
		if err := r.write(t, c, req, op, 0); err != nil {
			r.close(t, c, op, 0)
			r.fail(loop, "fleet write: %v", err)
			continue
		}
		got, err := r.readToEOF(t, c, resp, op)
		end := r.w.Now()
		r.close(t, c, op, 0)
		if err != nil {
			r.fail(loop, "fleet read: %v", err)
			continue
		}
		r.fillResponse(want, op)
		if r.corrupted() {
			resp[0] ^= 0xff
		}
		if got != blockSize || !bytes.Equal(resp[:got], want) {
			r.fail(loop, "fleet: op %d response (%d bytes) differs from its content", op, got)
			continue
		}
		if r.done(loop, end-start, blockSize) {
			r.setupLat = append(r.setupLat, setup)
		}
	}
}

// fleetServe reads one request, checks it, answers with the op's 4 KiB
// content and closes first.
func fleetServe(r *round, t *kern.Thread, c stacks.Conn) {
	op := r.nextOp()
	req := make([]byte, reqSize)
	if err := r.readFull(t, c, req, op, 0); err != nil {
		r.close(t, c, op, 0)
		return
	}
	parent := int64(binary.BigEndian.Uint64(req))
	want := make([]byte, reqSize)
	r.fillMsg(want, parent)
	if bytes.Equal(req, want) {
		resp := make([]byte, blockSize)
		r.fillResponse(resp, parent)
		_ = r.write(t, c, resp, op, parent) // a failed write shows as a short reply at the client
	}
	r.close(t, c, op, parent)
}
