package stacks

import (
	"time"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/tcp"
)

// policy is everything that distinguishes the two monolithic organizations.
// The protocol code the Shell runs is identical for both; these fields are
// the full list of structural differences.
type policy struct {
	name      string // organization, as Stack.Name reports it
	domain    string // protection domain the stack executes in
	inputName string // protocol-input thread
	semName   string // engine semaphore

	// issBase and issStride drive initial sequence number selection.
	issBase, issStride tcp.Seq

	// entry charges the way into one socket call (Read, Write, Close,
	// Accept, listener Close).
	entry func(t *kern.Thread)
	// listenEntry and connectEntry charge Listen and Connect, including
	// the pcb setup each performs.
	listenEntry, connectEntry func(t *kern.Thread)
	// remap moves writes of RemapMinUltrix bytes or more by page remap;
	// without it every write is copied.
	remap bool
	// serverWakeup charges KernelWakeup when a frame lands on an empty
	// input queue: the input thread lives in another address space.
	serverWakeup bool
	// readerWakeup is the charge for waking a reader blocked on data the
	// input thread just delivered.
	readerWakeup func(c *costs.Model) time.Duration
}

// inKernel is the Ultrix-style organization: the whole protocol stack
// executes in the kernel. Socket calls are general-purpose traps; data
// crosses the user/kernel boundary by copy for small writes and by page
// remap for writes of RemapMinUltrix bytes or more ("Ultrix uses an
// identical mechanism, but it is invoked only when the user packet size is
// 1024 bytes or larger"); input runs at software-interrupt level and wakes
// sleeping readers with a context switch.
var inKernel = policy{
	name: "inkernel", domain: "kernel", inputName: "softint", semName: "ik-engine",
	issBase: 10000, issStride: 64009,
	entry:        func(t *kern.Thread) { t.Trap() },
	listenEntry:  trapSetup,
	connectEntry: trapSetup,
	remap:        true,
	readerWakeup: func(c *costs.Model) time.Duration { return c.ContextSwitch },
}

// trapSetup charges a socket-call trap plus pcb setup.
func trapSetup(t *kern.Thread) {
	t.Trap()
	t.Compute(t.Cost().PCBSetup)
}

// singleServer is the Mach 3.0 + UX organization: the entire protocol
// suite executes in one trusted user-level server with the network device
// mapped into its address space. Every socket call is a Mach IPC round trip
// between the application and the server, and all data crosses in message
// bodies by copy. Inbound packets interrupt the kernel and must then wake
// the server's input thread in its own address space.
//
// This is the organization the paper's measurements show losing to both
// Ultrix and the user-level library ("the user-level library implementation
// outperforms the monolithic Mach/UX implementation ... 42% faster for the
// 4K packet case").
var singleServer = policy{
	name: "singleserver", domain: "ux-server", inputName: "input", semName: "ss-engine",
	issBase: 20000, issStride: 64013,
	entry:       rpc,
	listenEntry: rpc, // socket() + bind()/listen() folded into one RPC
	connectEntry: func(t *kern.Thread) {
		rpc(t) // socket()
		rpc(t) // connect()
		t.Compute(t.Cost().PCBSetup)
	},
	serverWakeup: true,
	// Waking the blocked application read and sending its reply message
	// crosses address spaces again.
	readerWakeup: func(c *costs.Model) time.Duration { return c.MachIPCSend + c.ContextSwitch },
}

// rpc charges one application<->server round trip with no in-line data:
// request send + switch into the server, reply send + switch back.
func rpc(t *kern.Thread) {
	c := t.Cost()
	t.Compute(2*c.MachIPCSend + 2*c.ContextSwitch)
}

// Shell runs the shared TCP/IP engine as a monolithic organization: one
// pcb table, one engine lock and one protocol-input thread per host, with
// every socket call entering the stack from the application. The two
// constructors differ only in the policy they install.
type Shell struct {
	pol   *policy
	host  *kern.Host
	nif   *Netif
	table *tcp.Table
	ports *tcp.PortAlloc
	iss   tcp.Seq
	eng   *Engine

	rxq       *sim.Queue[*pkt.Buf]
	listeners map[uint16]*listener
	conns     map[*tcp.Conn]*Sock
	udp       *UDPHost
}

// NewInKernel builds the Ultrix-style in-kernel organization on a host
// whose netio module is mod.
func NewInKernel(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Shell {
	return newShell(s, mod, ip, &inKernel)
}

// NewSingleServer builds the Mach/UX-style single-server organization
// (with mapped device) on a host whose netio module is mod.
func NewSingleServer(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Shell {
	return newShell(s, mod, ip, &singleServer)
}

func newShell(s *sim.Sim, mod *netio.Module, ip ipv4.Addr, pol *policy) *Shell {
	sh := &Shell{
		pol:       pol,
		host:      mod.Device().Host(),
		nif:       NewNetif(s, mod, ip),
		table:     tcp.NewTable(),
		ports:     tcp.NewPortAlloc(),
		iss:       pol.issBase,
		listeners: make(map[uint16]*listener),
		conns:     make(map[*tcp.Conn]*Sock),
	}
	dom := sh.host.NewDomain(pol.domain, true)
	sh.eng = NewEngine(s, pol.semName)
	sh.rxq = sim.NewQueue[*pkt.Buf](s)
	sh.udp = NewUDPHost(sh.nif)
	mod.SetDefaultHandler(func(b *pkt.Buf) {
		if pol.serverWakeup && sh.rxq.Len() == 0 {
			sh.host.ComputeAsync(sh.host.Cost.KernelWakeup, nil)
		}
		sh.rxq.Push(b)
	})
	dom.Spawn(pol.inputName, sh.inputThread)
	TickTimers{
		Scan:   func(visit func(*tcp.Conn, any)) { sh.table.Each(func(tc *tcp.Conn) { visit(tc, nil) }) },
		Engine: sh.eng,
		Nif:    sh.nif,
	}.Spawn(dom, "tcp")
	return sh
}

func (sh *Shell) Name() string     { return sh.pol.name }
func (sh *Shell) Host() *kern.Host { return sh.host }

// Netif exposes the interface (UDP examples, diagnostics).
func (sh *Shell) Netif() *Netif { return sh.nif }

// UDP exposes the host's datagram service.
func (sh *Shell) UDP() *UDPHost { return sh.udp }

func (sh *Shell) nextISS() tcp.Seq {
	sh.iss += sh.pol.issStride
	return sh.iss
}

// TCPConfig derives the engine configuration from options and the link.
// Every organization uses it, so handshake state built by the registry is
// directly transferable to the library.
func TCPConfig(nif *Netif, opts Options) tcp.Config {
	return tcp.Config{
		MSS:            nif.MSS(),
		SndBufSize:     opts.SndBuf,
		RcvBufSize:     opts.RcvBuf,
		Headroom:       nif.Headroom(),
		NoDelay:        opts.NoDelay,
		NoDelayedAck:   opts.NoDelayedAck,
		FastRetransmit: true,
		KeepAliveTicks: opts.KeepAliveTicks,
		RexmtR1:        opts.RexmtR1,
		RexmtR2:        opts.RexmtR2,
	}
}

// SegCost is the per-segment protocol processing charge, identical in all
// organizations ("the protocol stack that is executed is nearly identical
// in all three systems").
func SegCost(h *kern.Host, n int, noChecksum bool) time.Duration {
	m := &h.Cost
	d := m.TCPSegment + m.IPPacket + 2*m.TimerOp
	if !noChecksum {
		d += m.Checksum(n)
	}
	return d
}

// MbufCost is the per-packet BSD buffer-layer charge the monolithic
// organizations add on top of SegCost (the library's shared rings avoid
// it).
func MbufCost(h *kern.Host) time.Duration { return h.Cost.MbufLayer }

// attach wires a pcb into the shell: its socket with the policy's cost
// hooks, engine callbacks, trace, and cleanup on close. l is the listener a
// passive pcb was cloned from (nil for Connect): such a pcb shares the
// listener's port reference instead of holding its own, and is queued for
// Accept once established.
func (sh *Shell) attach(s *sim.Sim, tc *tcp.Conn, opts Options, l *listener) *Sock {
	sock := NewSock(s, tc)
	c := &sh.host.Cost
	sock.Entry = sh.pol.entry
	sock.Eng = sh.eng
	sock.WriteMove = func(t *kern.Thread, n int) {
		if sh.pol.remap && n >= c.RemapMinUltrix {
			t.Compute(c.PageRemap + c.SockbufOp)
		} else {
			t.Compute(c.Copy(n) + c.SockbufOp)
		}
	}
	sock.ReadMove = func(t *kern.Thread, n int) { t.Compute(c.Copy(n) + c.SockbufOp) }

	cb := sock.Callbacks(func(seg Seg) { sh.transmit(&seg, tc, opts) })
	if l != nil {
		inner := cb.OnEstablished
		cb.OnEstablished = func() {
			inner()
			if !l.closed {
				l.ready.Push(sock)
			}
		}
	}
	innerClosed := cb.OnClosed
	cb.OnClosed = func(err error) {
		sh.table.Remove(tc)
		delete(sh.conns, tc)
		if l == nil {
			sh.ports.Release(tc.Local().Port)
		}
		innerClosed(err)
	}
	tc.SetCallbacks(cb)
	if bus := sh.nif.Mod.Bus; bus != nil {
		tc.SetTrace(bus, sh.host.Name+" "+tc.Local().String()+">"+tc.Peer().String())
	}
	sh.conns[tc] = sock
	return sock
}

// transmit charges protocol costs and pushes a segment down IP and the
// device, in the context of whichever thread is driving the engine.
func (sh *Shell) transmit(seg *Seg, tc *tcp.Conn, opts Options) {
	t := sh.eng.Thread()
	t.Compute(SegCost(sh.host, seg.PayloadLen, opts.NoChecksum) + MbufCost(sh.host))
	sh.nif.WrapIP(seg.Buf, ipv4.ProtoTCP, tc.Peer().IP)
	sh.nif.Resolve(t, seg.Buf, tc.Peer().IP, 0, sh.nif.Mod.SendKernel)
}

// Listen implements Stack.
func (sh *Shell) Listen(t *kern.Thread, port uint16, opts Options) (Listener, error) {
	sh.pol.listenEntry(t)
	if !sh.ports.Reserve(port) {
		return nil, ErrPortInUse
	}
	l := &listener{
		sh:    sh,
		port:  port,
		opts:  opts,
		ready: sim.NewQueue[*Sock](t.Sim()),
	}
	sh.listeners[port] = l
	return l, nil
}

// listener queues established connections for Accept.
type listener struct {
	sh     *Shell
	port   uint16
	opts   Options
	ready  *sim.Queue[*Sock]
	closed bool
}

// Accept implements Listener.
func (l *listener) Accept(t *kern.Thread) (Conn, error) {
	l.sh.pol.entry(t)
	return l.ready.Pop(t.Proc), nil
}

// Close implements Listener.
func (l *listener) Close(t *kern.Thread) {
	l.sh.pol.entry(t)
	l.closed = true
	delete(l.sh.listeners, l.port)
	l.sh.ports.Release(l.port)
}

// Connect implements Stack.
func (sh *Shell) Connect(t *kern.Thread, remote tcp.Endpoint, opts Options) (Conn, error) {
	sh.pol.connectEntry(t)
	port, err := sh.ports.Ephemeral()
	if err != nil {
		return nil, err
	}
	local := tcp.Endpoint{IP: sh.nif.IP, Port: port}
	tc := tcp.NewConn(TCPConfig(sh.nif, opts), local, remote, tcp.Callbacks{})
	sock := sh.attach(t.Sim(), tc, opts, nil)
	if err := sh.table.Insert(tc); err != nil {
		sh.ports.Release(local.Port)
		return nil, err
	}
	sh.eng.Run(t, func() { tc.OpenActive(sh.nextISS()) })
	if err := sock.WaitEstablished(t); err != nil {
		return nil, err
	}
	return sock, nil
}

// inputThread is the protocol-input thread (the kernel's software
// interrupt, or the server's input loop): the device's default handler
// queues frames; this thread demultiplexes and runs the engine.
func (sh *Shell) inputThread(t *kern.Thread) {
	c := &sh.host.Cost
	for {
		b := sh.rxq.Pop(t.Proc)
		t.Compute(c.ThreadSwitch) // interrupt-to-input-thread dispatch
		sh.input(t, b)
	}
}

// input processes one inbound frame in thread context. The frame dies here
// on every path: reassembly, the UDP datagram queue and tcp.Conn.Input all
// copy the bytes they keep.
func (sh *Shell) input(t *kern.Thread, b *pkt.Buf) {
	defer b.Release()
	et, err := sh.nif.StripLink(b)
	if err != nil {
		return
	}
	switch et {
	case link.TypeARP:
		sh.nif.InputARP(t, b, sh.nif.Mod.SendKernel)
		return
	case link.TypeIPv4:
	default:
		return
	}
	h, data, ok := sh.nif.InputIP(b)
	if !ok {
		return
	}
	switch h.Proto {
	case ipv4.ProtoTCP:
		sh.inputTCP(t, h, data)
	case ipv4.ProtoUDP:
		sh.udp.Input(t, h, data)
	}
}

// inputTCP demultiplexes a segment through the pcb table: an existing
// connection, a listener that clones a pcb for a SYN, or an RST reply.
func (sh *Shell) inputTCP(t *kern.Thread, h ipv4.Header, data []byte) {
	seg := pkt.FromBytes(0, data)
	defer seg.Release()
	th, err := tcp.Decode(seg, h.Src, h.Dst)
	if err != nil {
		return // bad checksum: dropped silently, retransmission recovers
	}
	local := tcp.Endpoint{IP: h.Dst, Port: th.DstPort}
	peer := tcp.Endpoint{IP: h.Src, Port: th.SrcPort}
	t.Compute(SegCost(sh.host, seg.Len(), false) + MbufCost(sh.host))

	if tc, ok := sh.table.LookupExact(local, peer); ok {
		sock := sh.conns[tc]
		waiting := sock != nil && sock.ReadableWaiters() > 0
		sh.eng.Run(t, func() { tc.Input(th, seg.Bytes()) })
		if waiting {
			t.Compute(sh.pol.readerWakeup(&sh.host.Cost))
		}
		return
	}
	if l, ok := sh.listeners[local.Port]; ok && !l.closed {
		if th.Flags&tcp.FlagSYN != 0 && th.Flags&(tcp.FlagACK|tcp.FlagRST) == 0 {
			sh.spawnFromListener(t, l, local, peer, th, seg.Bytes())
			return
		}
	}
	// No endpoint: reset.
	if r, rb := tcp.MakeRST(th, seg.Len(), sh.nif.Headroom(), local, peer); r != nil {
		sh.nif.WrapIP(rb, ipv4.ProtoTCP, peer.IP)
		sh.nif.Resolve(t, rb, peer.IP, 0, sh.nif.Mod.SendKernel)
	}
}

// spawnFromListener clones a pcb for an inbound SYN (BSD's listen-socket
// cloning) and delivers the SYN to it.
func (sh *Shell) spawnFromListener(t *kern.Thread, l *listener, local, peer tcp.Endpoint, th tcp.Header, data []byte) {
	tc := tcp.NewConn(TCPConfig(sh.nif, l.opts), local, peer, tcp.Callbacks{})
	tc.SetISS(sh.nextISS())
	sh.attach(t.Sim(), tc, l.opts, l)
	tc.OpenListen()
	if err := sh.table.Insert(tc); err != nil {
		return
	}
	sh.eng.Run(t, func() { tc.Input(th, data) })
}
