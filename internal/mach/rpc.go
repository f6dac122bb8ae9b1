package mach

import (
	"fmt"
	"time"

	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/ktrace"
)

// This file implements the reworked RPC path — the paper's central IPC
// change.  Relative to classic mach_msg the rework:
//
//   - removed reply ports (the reply path is implicit in the rendezvous)
//   - made message delivery and reply synchronous
//   - blocks threads waiting to send or receive
//   - removed message queuing
//   - passes data too large for the inline body by reference, copying it
//     once from sender to receiver
//   - replaced virtual copy with physical copy
//   - optimized and simplified the user-level stubs and server loops
//
// The result in the paper was a 2x–10x message-passing improvement over
// mach_msg depending on size; BenchmarkFigureIPCSweep reproduces the sweep.

// userBufAddr returns the synthetic address of a task's message buffer,
// distinct per address space so copies charge realistic D-cache traffic.
func userBufAddr(asid uint64) uint64 {
	return 0x8000_0000 + asid*0x0100_0000
}

// Responder completes one received RPC.
type Responder struct {
	ex   *rpcExchange
	port *Port
	srv  *Thread
	done bool
	// release ends the server burst the scheduler placed in RPCReceive;
	// Reply runs it once the reply is delivered (nil on single-CPU
	// kernels).  Carrying it here is what lets Serve, ServePool and every
	// hand-rolled receive loop get scheduled without changing: the
	// receive-handle-reply window is exactly one dispatched burst.
	release func()
}

// CallOpts parameterizes one Call.  The zero value means "plain
// synchronous call, wait forever" — what RPC always did.  The struct
// leaves room for future per-call policy (retry, priority inheritance)
// without growing another method per knob.
type CallOpts struct {
	// Timeout bounds the call end to end; 0 means no deadline.  The
	// deadline is wired into the rendezvous and reply waits directly:
	// expiry during rendezvous means the exchange was never handed over,
	// and expiry while the server holds the exchange abandons it — a
	// later Reply finds the abandoned state and discards the reply
	// instead of resurrecting the call.
	Timeout time.Duration

	// Batch vectors additional sub-requests into the same crossing as
	// the request passed to Call: one dispatch, one AS-switch pair, one
	// I-cache refill charged for the whole batch, plus a small per-sub
	// demux charge.  Call returns the first sub-reply; CallV is the
	// ergonomic surface over the same mechanism and returns them all.
	Batch []*Message

	// Ctx is the request this call is made on behalf of.  A handler
	// calling through its own serving thread needs none — dispatch lent
	// the thread its request — but work that moved to another thread (a
	// shared device thread) names its request here, so the call's hop
	// attaches as a child of that request instead of minting a root.
	Ctx klat.Ctx
}

// Call performs a synchronous remote procedure call: it blocks until a
// server thread is waiting in RPCReceive on the destination port, hands
// the request over with a single physical copy, and blocks until the reply
// arrives.  There is no reply port and no queuing.  Call and CallV are
// the client entry points.
func (th *Thread) Call(dest PortName, req *Message, opts CallOpts) (*Message, error) {
	if len(opts.Batch) > 0 {
		reqs := append([]*Message{req}, opts.Batch...)
		replies, err := th.CallV(dest, reqs, CallOpts{Timeout: opts.Timeout, Ctx: opts.Ctx})
		if err != nil {
			return nil, err
		}
		return replies[0], nil
	}
	return th.callMsg(dest, req, opts)
}

// CallV performs a vectored call: one crossing carries every request in
// reqs and returns the matching sub-replies, in order.  The whole batch
// pays one dispatch, one AS-switch pair and one I-cache refill; each
// sub-message adds only its body copy (or per-page region map) and a
// small demux charge.  Sub-messages cannot carry port rights.  A batch
// of one degrades to a plain Call; an empty batch is a no-op.
func (th *Thread) CallV(dest PortName, reqs []*Message, opts CallOpts) ([]*Message, error) {
	switch len(reqs) {
	case 0:
		return nil, nil
	case 1:
		m, err := th.callMsg(dest, reqs[0], opts)
		if err != nil {
			return nil, err
		}
		return []*Message{m}, nil
	}
	for _, sub := range reqs {
		if sub == nil {
			return nil, ErrBatchMismatch
		}
	}
	carrier := &Message{ID: reqs[0].ID, trace: reqs[0].trace, batch: reqs}
	reply, err := th.callMsg(dest, carrier, opts)
	if err != nil {
		return nil, err
	}
	if len(reply.batch) != len(reqs) {
		return nil, ErrBatchMismatch
	}
	return reply.batch, nil
}

// callMsg arms the optional deadline, resolves the parent request (the
// explicit one, else the one the thread is serving) and runs the client
// path.
func (th *Thread) callMsg(dest PortName, req *Message, opts CallOpts) (*Message, error) {
	parent := opts.Ctx
	if parent.Hop() == nil {
		parent = th.ctx
	}
	if opts.Timeout > 0 {
		timer := time.NewTimer(opts.Timeout)
		defer timer.Stop()
		return th.rpcCall(dest, req, parent, timer.C)
	}
	return th.rpcCall(dest, req, parent, nil)
}

// rpcNames are the observation-plane names derived from one task's
// name: the flight-recorder events of calls to it, receives by it and
// dispatches of its threads, its kprof client and server frames (the
// receive and server names double as ktrace span names), and its
// per-destination kstat family.  Built once per task, so the RPC path
// concatenates no strings on success.
type rpcNames struct {
	task                      string // "" for an unknown destination
	call, reply, errPrefix    string // call:<t>, reply:<t>, error:<t>:
	callv, replyv, errvPrefix string // callv:<t>, replyv:<t>, errorv:<t>:
	recv, dispatch            string // recv:<t>, dispatch:<t>
	rpc, serve                string // rpc:<t>, serve:<t>
	toCalls                   string // mach.rpc.to.<t>.calls; "" when unnamed
}

// unknownDest names a destination with no receiving task (or an unnamed
// one): events and frames read "?" and no per-destination family exists.
var unknownDest = newRPCNames("")

func newRPCNames(task string) *rpcNames {
	shown := task
	if shown == "" {
		shown = "?"
	}
	n := &rpcNames{
		task: task,
		call: "call:" + shown, reply: "reply:" + shown, errPrefix: "error:" + shown + ":",
		callv: "callv:" + shown, replyv: "replyv:" + shown, errvPrefix: "errorv:" + shown + ":",
		recv: "recv:" + task, dispatch: "dispatch:" + task,
		rpc: "rpc:" + shown, serve: "serve:" + task,
	}
	if task != "" {
		n.toCalls = "mach.rpc.to." + task + ".calls"
	}
	return n
}

// destNames resolves dest to its receiving task's names without charging
// anything: one lookup in the caller's space and one read of the port.
func (t *Task) destNames(dest PortName) *rpcNames {
	if e, err := t.ports.lookup(dest, RightSend); err == nil {
		if rt := e.port.receiverTask(); rt != nil {
			return rt.names
		}
	}
	return unknownDest
}

// rpcCall is the one client path, and every observation hook of a call
// lives here with each plane looked up once: the latency ledger's hop,
// the flight recorder's call and outcome events, the kprof rpc:<server>
// frame, the kstat RPC families and the ktrace rpc span.  The hooks only
// read the engine's counters (never charge them), so an observed call
// costs exactly what an unobserved one does; the per-call instr/cycles
// deltas are exact for serial callers and interleave under concurrency
// (counts and bytes stay exact either way).  parent is the request the
// call is made for (the zero Ctx at a client entry point).  A nil
// deadline channel never fires.
func (th *Thread) rpcCall(dest PortName, req *Message, parent klat.Ctx, deadline <-chan time.Time) (m *Message, err error) {
	k := th.task.kernel
	st, pr, fr, lt, tr := kstat.For(k.CPU), kprof.For(k.CPU), kflight.For(k.CPU), klat.For(k.CPU), ktrace.For(k.CPU)
	if st != nil || pr != nil || fr != nil || lt != nil {
		dn := th.task.destNames(dest)
		if lt != nil {
			// Every client entry point mints a hop here: P0 now, P1–P3
			// from the stamp points down the path (the hop rides in the
			// message header), P4 and the record/discard decision when
			// the named return is known.  A call made for another
			// request attaches to that request's ledger as a child hop.
			hop := lt.Begin(parent, dn.task, uint32(req.ID), len(req.batch))
			req.ctx = hop.Ctx()
			defer func() { lt.Finish(hop, err) }()
		}
		if fr != nil {
			// Batch-aware events: a vectored carrier logs callv/replyv
			// with the sub-request count, so a flight dump distinguishes
			// one crossing carrying N ops from N crossings.
			call, reply, errPrefix, arg := dn.call, dn.reply, dn.errPrefix, uint64(req.ID)
			if n := len(req.batch); n > 0 {
				call, reply, errPrefix, arg = dn.callv, dn.replyv, dn.errvPrefix, uint64(n)
			}
			fr.Emit(ktrace.EvRPC, "mach.rpc", call, arg)
			defer func() {
				if err != nil {
					fr.Emit(ktrace.EvRPC, "mach.rpc", errPrefix+err.Error(), arg)
				} else {
					fr.Emit(ktrace.EvRPC, "mach.rpc", reply, arg)
				}
			}()
		}
		if pr != nil {
			defer pr.Push(dn.rpc).Pop()
		}
		if st != nil {
			// Calls and request bytes count at dispatch, so a server
			// taking a snapshot while handling this very call (the
			// monitor serving its own query) already sees it; latency
			// and reply size land after.  A vectored carrier is ONE call
			// (the conservation law calls == replies + errors holds per
			// crossing); its width lands on mach.rpc.batched.
			reqBytes := copiedBytes(req)
			st.Counter("mach.rpc.calls").Inc()
			st.Counter("mach.rpc.bytes_in").Add(reqBytes)
			if n := len(req.batch); n > 0 {
				st.Counter("mach.rpc.batched").Add(uint64(n))
			}
			if rb := regionBytes(req); rb > 0 {
				st.Counter("mach.ool.bytes_mapped").Add(rb)
			}
			if dn.toCalls != "" {
				st.Counter(dn.toCalls).Inc()
			}
			base := k.CPU.Counters()
			defer func() {
				d := k.CPU.Counters().Sub(base)
				st.Counter("mach.rpc.instr").Add(d.Instructions)
				st.Counter("mach.rpc.cycles").Add(d.Cycles)
				st.Counter("mach.rpc.bus").Add(d.BusCycles)
				st.Histogram("mach.rpc.latency_cycles").Observe(d.Cycles)
				st.Histogram("mach.rpc.size_bytes").Observe(reqBytes)
				if err != nil {
					st.Counter("mach.rpc.errors").Inc()
					return
				}
				// Every dispatched call resolves as exactly one reply or
				// one error, so after quiesce calls == replies + errors —
				// the conservation law the chaos harness checks after
				// each fault epoch.
				st.Counter("mach.rpc.replies").Inc()
				st.Counter("mach.rpc.bytes_out").Add(copiedBytes(m))
				if rb := regionBytes(m); rb > 0 {
					st.Counter("mach.ool.bytes_mapped").Add(rb)
				}
			}()
		}
	}

	if len(req.Body) > InlineMax {
		return nil, ErrMsgTooLarge
	}
	for _, sub := range req.batch {
		if len(sub.Body) > InlineMax {
			return nil, ErrMsgTooLarge
		}
		if len(sub.Rights) > 0 {
			return nil, ErrBatchRights
		}
	}
	// The send path up to the rendezvous is one scheduled burst; the
	// resume after the reply is another, dispatched separately — that
	// resume is where a migration can happen and be charged.  Both
	// releases funnel through the deferred call, so error returns always
	// end the current burst.  All of this is nil/no-op on single-CPU.
	rel := k.schedRun(th)
	release := func() {
		if rel != nil {
			rel()
			rel = nil
		}
	}
	defer release()
	var sp ktrace.Span
	if tr != nil {
		lbl := fmt.Sprintf("rpc:%#04x", uint32(req.ID))
		if n := len(req.batch); n > 0 {
			lbl = fmt.Sprintf("rpcv:%#04x[%d]", uint32(req.ID), n)
		}
		sp = tr.Begin(ktrace.EvRPC, "mach.rpc", lbl, req.trace)
		req.trace = sp.Context()
	}
	defer sp.End()

	// Simplified client stub and kernel entry.
	k.CPU.Exec(k.paths.rpcStubC)
	k.trap()
	k.CPU.Exec(k.paths.portLookup)

	port, entry, err := th.task.portFor(dest, RightSend)
	if err != nil {
		k.rti()
		return nil, err
	}
	k.touchKData(port.id, 96)
	k.CPU.Exec(k.paths.rpcSend)

	// Carry rights.
	if len(req.Rights) > 0 {
		if err := th.task.loadRights(req); err != nil {
			k.rti()
			return nil, err
		}
	}

	// Data movement: inline bodies and copy-once OOL payloads are each
	// physically copied exactly once, sender space to receiver space;
	// region payloads move by per-page map manipulation with no per-byte
	// cost; a vectored carrier pays one gathered copy plus a per-sub
	// demux charge.
	dstAS := port.receiverASID()
	k.chargeTransfer(req, th.task.asid, dstAS)
	k.CPU.Exec(k.paths.schedule)

	ex := &rpcExchange{
		request: cloneForDelivery(req),
		reply:   make(chan rpcOutcome, 1),
		abort:   th.abort,
		caller:  th,
		gone:    make(chan struct{}),
	}

	// The client blocks for the rendezvous: its burst ends here.  Both
	// blocking points register with the flight recorder's wait-for graph;
	// the deferred clear covers every return path.
	release()
	defer th.clearWait()

	// P1: the send burst is fully charged; cycles from here to a server
	// thread's pickup are the hop's queue-wait.
	req.ctx.Hop().StampSent()

	th.setWait(kflight.WaitRendezvous, port, nil, uint32(req.ID))
	select {
	case port.rpc <- ex:
	case <-port.rpcClosed():
		return nil, ErrDeadPort
	case <-th.abort:
		return nil, ErrAborted
	case <-deadline:
		// The exchange was never handed over; nothing to abandon.
		return nil, ErrTimeout
	}
	if entry.typ == RightSendOnce {
		th.task.ports.consumeSendOnce(dest)
	}

	th.setWait(kflight.WaitReply, port, nil, uint32(req.ID))
	var out rpcOutcome
	select {
	case out = <-ex.reply:
	case <-th.abort:
		ex.abandon()
		return nil, ErrAborted
	case <-deadline:
		if ex.abandon() {
			return nil, ErrTimeout
		}
		// The reply committed before the deadline took effect; the
		// buffered outcome is already in flight, so take it.
		out = <-ex.reply
	}
	th.clearWait()
	if out.err != nil {
		return nil, out.err
	}

	// Client resumes: switch back to its space and return to user mode.
	// A fresh dispatch — the thread prefers its last engine but may be
	// stolen to an idle one, paying the migration charge there.  The
	// resume cannot start before the reply existed in modeled time: the
	// server's virtual completion time rides in the outcome, and waiting
	// for it here is what couples client progress to server occupancy.
	k.schedReady(th, out.vt)
	rel = k.schedRun(th)
	k.CPU.SwitchAddressSpace(th.task.asid)
	k.CPU.Exec(k.paths.schedule)
	k.rti()
	k.CPU.Instr(20) // stub epilogue
	return out.m, nil
}

// copiedBytes counts the bytes a message moves through the physical copy
// path: inline bodies and copy-once OOL payloads, across every
// sub-message of a carrier.  Region payloads are excluded — they move by
// map manipulation and land on mach.ool.bytes_mapped instead.
func copiedBytes(m *Message) uint64 {
	n := uint64(len(m.Body) + len(m.OOL))
	for _, sub := range m.batch {
		n += uint64(len(sub.Body) + len(sub.OOL))
	}
	return n
}

// regionBytes counts the payload bytes a message transfers by reference.
func regionBytes(m *Message) uint64 {
	var n uint64
	for i := range m.Regions {
		n += m.Regions[i].Len
	}
	for _, sub := range m.batch {
		n += regionBytes(sub)
	}
	return n
}

// RPCReceive blocks the calling server thread until an RPC arrives on the
// port named by recvName (which must denote a receive right in the
// thread's task).  It returns the request and a Responder that must be
// used exactly once.
func (th *Thread) RPCReceive(recvName PortName) (*Message, *Responder, error) {
	port, _, err := th.task.portFor(recvName, RightReceive)
	if err != nil {
		return nil, nil, err
	}
	if port.receiverTask() != th.task {
		return nil, nil, ErrNotReceiver
	}

	// A parked server thread registers as a receive wait; receive-side
	// kinds never form dependency edges (they are capacity, not demand),
	// but the dump lists them so "who is idle" is visible postmortem.
	th.setWait(kflight.WaitReceive, port, nil, 0)
	var ex *rpcExchange
	select {
	case ex = <-port.rpc:
	case <-port.rpcClosed():
		th.clearWait()
		return nil, nil, ErrDeadPort
	case <-th.abort:
		th.clearWait()
		return nil, nil, ErrAborted
	}
	th.clearWait()
	req, resp := th.accept(ex, port)
	return req, resp, nil
}

// accept is the one receive hand-off, shared by RPCReceive and
// RPCReceiveSet once a server thread holds an exchange taken from port
// (directly or through a set).  It loads the server's address space,
// runs the receive return path and the simplified server stub, installs
// carried rights and stamps the port's sequence number.
//
// The burst dispatched here covers receive, handler and reply — its
// release travels in the Responder, and it cannot start before the
// client's send burst completed in modeled time.  Pool workers serialize
// on the pool's virtual capacity, not on their own clock (which worker
// won the rendezvous is a wall-clock accident).
func (th *Thread) accept(ex *rpcExchange, port *Port) (*Message, *Responder) {
	k := th.task.kernel
	// P2: a server thread has the exchange; queue-wait (including any
	// port-set relay) ends, the service segment (receive path, handler,
	// reply) begins.
	ex.request.ctx.Hop().StampPicked()
	if fr := kflight.For(k.CPU); fr != nil {
		fr.Emit(ktrace.EvRPCServe, "mach.rpc", th.task.names.recv, uint64(ex.request.ID))
	}
	var rel func()
	if th.poolVT != nil {
		rel = k.schedRunPool(th, th.poolVT, ex.caller.vt.Load())
	} else {
		k.schedReady(th, ex.caller.vt.Load())
		rel = k.schedRun(th)
	}
	k.CPU.SwitchAddressSpace(th.task.asid)
	k.CPU.Exec(k.paths.rpcReceive)
	k.CPU.Exec(k.paths.rpcStubS)
	k.touchKData(port.id, 96)
	if len(ex.request.Rights) > 0 {
		th.task.acceptRights(ex.request)
	}
	port.mu.Lock()
	port.seqno++
	ex.request.Seq = port.seqno
	port.mu.Unlock()
	k.rti()
	return ex.request, &Responder{ex: ex, port: port, srv: th, release: rel}
}

// chargeTransfer charges the data-movement half of one RPC crossing in
// direction srcAS→dstAS: a single physical copy for inline bodies and
// copy-once OOL payloads (gathered across every sub-message of a
// vectored carrier), a per-page map charge — and no per-byte cost — for
// by-reference regions, and a per-sub demux charge for carriers.
func (k *Kernel) chargeTransfer(m *Message, srcAS, dstAS uint64) {
	if m.batch == nil {
		k.CPU.Copy(userBufAddr(srcAS), userBufAddr(dstAS), uint64(len(m.Body)))
		if len(m.OOL) > 0 {
			k.CPU.Copy(userBufAddr(srcAS)+1<<20, userBufAddr(dstAS)+1<<20, uint64(len(m.OOL)))
		}
		k.chargeRegions(m)
		return
	}
	// Vectored carrier: sub-bodies are gathered into one contiguous
	// buffer and moved with a single copy, so the per-message fixed copy
	// overhead is paid once per batch, not once per op.
	var body, ool uint64
	for _, sub := range m.batch {
		k.CPU.Exec(k.paths.batchDemux)
		body += uint64(len(sub.Body))
		ool += uint64(len(sub.OOL))
		k.chargeRegions(sub)
	}
	k.CPU.Copy(userBufAddr(srcAS), userBufAddr(dstAS), body)
	if ool > 0 {
		k.CPU.Copy(userBufAddr(srcAS)+1<<20, userBufAddr(dstAS)+1<<20, ool)
	}
}

// chargeRegions charges the by-reference transfer of a message's regions:
// one rpc_region_map traversal and one map-entry touch per page, zero
// per-byte cycles.  The kprof frame makes the map cost attributable as
// its own charge site in profiles.
func (k *Kernel) chargeRegions(m *Message) {
	if len(m.Regions) == 0 {
		return
	}
	if pr := kprof.For(k.CPU); pr != nil {
		defer pr.Push("xfer:region_map").Pop()
	}
	for i := range m.Regions {
		for p, n := uint64(0), m.Regions[i].Pages(); p < n; p++ {
			k.CPU.Exec(k.paths.regionMap)
			k.touchKData((1<<16)+p, 64)
		}
	}
}

// Reply completes the RPC, copying the reply body back with a single
// physical copy and resuming the blocked client.  A reply the server
// cannot deliver (oversized body, bad rights) still resolves the exchange:
// the blocked client unblocks with ErrReplyFailed and the server gets the
// underlying error, so neither side hangs on the other's mistake.
//
// A vectored request must be answered with ReplyV; Reply on a carrier
// fails the exchange (the client unblocks with ErrReplyFailed) and
// returns ErrBatchMismatch.
func (r *Responder) Reply(reply *Message) error {
	if len(r.ex.request.batch) > 0 {
		return r.mismatch()
	}
	return r.deliver(reply)
}

// ReplyV completes a vectored RPC: one crossing carries every sub-reply
// back, in request order.  len(replies) must equal the request batch
// width (nil slots become empty replies); ReplyV on a plain request is a
// batch mismatch, except for the degenerate single-reply case.
func (r *Responder) ReplyV(replies []*Message) error {
	n := len(r.ex.request.batch)
	if n == 0 && len(replies) == 1 {
		return r.deliver(replies[0])
	}
	if n == 0 || len(replies) != n {
		return r.mismatch()
	}
	subs := make([]*Message, n)
	for i, sub := range replies {
		if sub == nil {
			sub = &Message{}
		}
		subs[i] = sub
	}
	return r.deliver(&Message{ID: subs[0].ID, batch: subs})
}

// mismatch consumes the responder for a reply of the wrong shape: the
// client unblocks with ErrReplyFailed, the server gets ErrBatchMismatch.
func (r *Responder) mismatch() error {
	if r.done {
		return ErrNoReplyExpected
	}
	r.done = true
	r.endBurst()
	r.fail(ErrReplyFailed)
	return ErrBatchMismatch
}

// endServe closes the thread's serve window, once.
func (th *Thread) endServe() {
	th.serveFrame.Pop()
	th.serveFrame = kprof.Frame{}
	th.serveSpan.End()
	th.serveSpan = ktrace.Span{}
}

// fail closes the serve window and unblocks the client with err.
func (r *Responder) fail(err error) {
	r.srv.endServe()
	r.ex.fail(err)
}

// endBurst ends the server burst the receive hand-off placed, once.
func (r *Responder) endBurst() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
}

// deliver is the shared reply path for plain replies and reply carriers.
func (r *Responder) deliver(reply *Message) error {
	if r.done {
		return ErrNoReplyExpected
	}
	r.done = true
	defer r.endBurst()
	k := r.srv.task.kernel
	if reply == nil {
		reply = &Message{}
	}
	if len(reply.Body) > InlineMax {
		r.fail(ErrReplyFailed)
		return ErrMsgTooLarge
	}
	for _, sub := range reply.batch {
		if len(sub.Body) > InlineMax {
			r.fail(ErrReplyFailed)
			return ErrMsgTooLarge
		}
		if len(sub.Rights) > 0 {
			r.fail(ErrReplyFailed)
			return ErrBatchRights
		}
	}
	k.trap()
	k.CPU.Exec(k.paths.rpcReply)
	callerAS := r.ex.caller.task.asid
	k.chargeTransfer(reply, r.srv.task.asid, callerAS)
	if len(reply.Rights) > 0 {
		if err := r.srv.task.loadRights(reply); err != nil {
			r.fail(ErrReplyFailed)
			return err
		}
	}
	k.CPU.Exec(k.paths.schedule)
	delivered := cloneForDelivery(reply)
	if r.ex.commit() {
		// Install carried rights only for a caller that is still
		// waiting; an abandoned caller's name space must not change
		// under it, and the loaded rights die with the reply.
		if len(delivered.Rights) > 0 {
			r.ex.caller.task.acceptRights(delivered)
		}
		// End the server burst before waking the client, so the outcome
		// carries the handler's virtual completion time and the client's
		// resume starts after it in modeled time.
		if r.release != nil {
			r.endBurst()
			// The burst just settled: attach its modeled schedule to the
			// hop's ledger.  On a multi-engine run the wall-clock segments
			// measure global work during the hop, not this request's own
			// waiting, so these virtual-cycle figures — burst length, pool
			// wait, engine wait — are what E-TAIL's queue attribution
			// reasons over.
			r.ex.request.ctx.Hop().NoteSched(r.srv.schedBurst.Load(),
				r.srv.schedPoolWait.Load(), r.srv.schedCPUWait.Load())
		}
		// P3: the reply is committed and the burst released — service
		// ends here, the client's resume segment starts.  Only the
		// committed branch stamps: an abandoned exchange's hop was
		// discarded by the client and must not be written further.
		r.ex.request.ctx.Hop().StampServed()
		r.srv.endServe()
		r.ex.reply <- rpcOutcome{m: delivered, vt: r.srv.vt.Load()}
	}
	return nil
}

// receiverASID reports the address space holding the receive right.
func (p *Port) receiverASID() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recvTask == nil {
		return 0
	}
	return p.recvTask.asid
}

// Handler processes one RPC request and returns the reply.
type Handler func(*Message) *Message

// portHandler is a Handler that is also told which port the request
// arrived on: the member port of a set, or the served receive right.
type portHandler func(port PortName, req *Message) *Message

// withPort adapts h to the loop's portHandler shape.
func (h Handler) withPort() portHandler {
	return func(_ PortName, m *Message) *Message { return h(m) }
}

// receiveOn is the receiveFn of a loop serving one receive right.
func receiveOn(recv PortName) receiveFn {
	return func(th *Thread) (*Message, *Responder, PortName, error) {
		req, resp, err := th.RPCReceive(recv)
		return req, resp, recv, err
	}
}

// dispatchReply runs h and delivers the reply, demultiplexing vectored
// carriers: each sub-request is handled independently, in order, and the
// sub-replies travel back in one crossing.  Handlers never see a
// carrier, so every existing handler is batch-transparent.
//
// This is also where the request context passes from message to thread:
// the serving thread holds the request's context for the handler's
// duration, so nested Calls the handler makes through it attach as child
// hops with no lookup.  A carrier additionally gets one sub-hop per
// demultiplexed sub-request — its service window — which the sub's
// handler sees as its message's context and its thread's.  With the
// plane detached every context is the zero Ctx and nothing allocates.
func dispatchReply(resp *Responder, req *Message, port PortName, h portHandler) error {
	th := resp.srv
	if subs := req.batch; subs != nil {
		carrier := req.ctx.Hop()
		replies := make([]*Message, len(subs))
		for i, sub := range subs {
			sh := carrier.BeginSub(uint32(sub.ID))
			if sh != nil {
				// The sub's header is the client's; the handler gets its
				// own copy naming the sub-hop.
				c := *sub
				c.ctx = sh.Ctx()
				sub = &c
			}
			th.ctx = sub.ctx
			replies[i] = h(port, sub)
			sh.EndSub()
		}
		th.ctx = klat.Ctx{}
		return resp.ReplyV(replies)
	}
	th.ctx = req.ctx
	reply := h(port, req)
	th.ctx = klat.Ctx{}
	return resp.Reply(reply)
}

// Serve runs the server loop on the calling thread over the named receive
// right: each iteration blocks in RPCReceive, applies h, and replies.  It
// returns when the thread or port dies.
func (th *Thread) Serve(recvName PortName, h Handler) error {
	return th.serveLoop(receiveOn(recvName), h.withPort(), th.task.names.serve, nil, 0)
}

// serveLoop is the one server loop — the rework's "optimized and
// simplified ... server loop" — run by Serve and by every ServerPool
// worker.  Around each dispatchReply it opens the ktrace EvRPCServe span
// and pushes the kprof server frame, both named frame (serve:<task>, or
// serve:<task>/<worker> in a pool), plus an op:<id> frame so cycles roll
// up by server and by operation.  The span is parented to the client's
// RPC span carried in the message, so the causal tree crosses tasks; it
// covers the handler AND reply delivery, which together are the
// server-occupancy segment of one RPC that the concurrency model in
// internal/bench calibrates from.  The thread holds span and frames,
// and the reply path closes them just before it wakes the client.  A
// pool worker (p non-nil) also keeps the pool's busy gauge and counts
// the completion.
//
// A failed reply delivery (oversized or bad-rights reply) poisons neither
// the thread nor the port: the client was already unblocked with
// ErrReplyFailed, so the loop takes the next request.  Only a receive
// failure (dead port, terminated thread) ends the loop.
func (th *Thread) serveLoop(recv receiveFn, h portHandler, frame string, p *ServerPool, idx int) error {
	k := th.task.kernel
	for {
		req, resp, port, err := recv(th)
		if err != nil {
			return err
		}
		st := kstat.For(k.CPU)
		if p != nil && st != nil {
			st.Gauge(p.busyFam).Inc()
		}
		if tr := ktrace.For(k.CPU); tr != nil {
			th.serveSpan = tr.Begin(ktrace.EvRPCServe, "mach.rpc", frame, req.trace)
		}
		if pr := kprof.For(k.CPU); pr != nil {
			th.serveFrame = pr.Push(frame)
			pr.Push(fmt.Sprintf("op:%#04x", uint32(req.ID)))
		}
		_ = dispatchReply(resp, req, port, h)
		// The reply path closed the window before waking the client; a
		// reply to an abandoned exchange woke nobody and closes it here.
		th.endServe()
		if p != nil {
			if st != nil {
				st.Gauge(p.busyFam).Dec()
				st.Counter(p.opsFam).Inc()
			}
			p.ops[idx].Add(1)
		}
	}
}

// cloneForDelivery snapshots a message as delivery would: the receiver
// gets its own header copy; body bytes are shared because the cost of the
// physical copy is charged in the cost model and the simulation treats
// delivered bodies as immutable.
func cloneForDelivery(m *Message) *Message {
	c := *m
	return &c
}

// loadRights resolves the in-transit rights of a message against the
// sending task's space, charging the per-right transfer path.
func (t *Task) loadRights(m *Message) error {
	k := t.kernel
	for i := range m.Rights {
		pr := &m.Rights[i]
		k.CPU.Exec(k.paths.rightXfer)
		e, err := t.ports.lookup(pr.Name, RightNone)
		if err != nil {
			return err
		}
		switch pr.Disposition {
		case DispCopySend:
			if e.typ != RightSend && e.typ != RightReceive {
				return ErrInvalidRight
			}
			pr.port, pr.typ = e.port, RightSend
		case DispMakeSend:
			if e.typ != RightReceive {
				return ErrInvalidRight
			}
			pr.port, pr.typ = e.port, RightSend
		case DispMakeSendOnce:
			if e.typ != RightReceive {
				return ErrInvalidRight
			}
			pr.port, pr.typ = e.port, RightSendOnce
		case DispMoveReceive:
			if e.typ != RightReceive {
				return ErrInvalidRight
			}
			t.ports.remove(pr.Name)
			pr.port, pr.typ = e.port, RightReceive
		default:
			return ErrInvalidRight
		}
	}
	return nil
}

// acceptRights installs carried rights into the receiving task's space and
// rewrites the names in the message to receiver-local names.
func (t *Task) acceptRights(m *Message) {
	k := t.kernel
	for i := range m.Rights {
		pr := &m.Rights[i]
		if pr.port == nil {
			continue
		}
		k.CPU.Exec(k.paths.rightXfer)
		if pr.typ == RightReceive {
			pr.port.setReceiverTask(t)
		}
		n, err := t.ports.insert(pr.port, pr.typ)
		if err != nil {
			pr.Name = NullName
			continue
		}
		pr.Name = n
	}
}
