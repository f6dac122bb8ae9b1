package mach

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/ktrace"
	"repro/internal/race"
)

// serveShape starts one of the three ways a task serves RPC — a thread
// in Serve, a ServePool, a ServeSetPool — on srv with h, and returns the
// receive right (for the set shape, a member of the served set) that
// clients call.
type serveShape struct {
	name  string
	start func(t *testing.T, srv *Task, h Handler) PortName
}

var serveShapes = []serveShape{
	{"Serve", func(t *testing.T, srv *Task, h Handler) PortName {
		recv := mustPort(t, srv)
		if _, err := srv.Spawn("loop", func(th *Thread) { th.Serve(recv, h) }); err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		return recv
	}},
	{"ServePool", func(t *testing.T, srv *Task, h Handler) PortName {
		recv := mustPort(t, srv)
		if _, err := srv.ServePool("pool", recv, 2, h); err != nil {
			t.Fatalf("ServePool: %v", err)
		}
		return recv
	}},
	{"ServeSetPool", func(t *testing.T, srv *Task, h Handler) PortName {
		ps, err := srv.AllocatePortSet()
		if err != nil {
			t.Fatalf("AllocatePortSet: %v", err)
		}
		recv := mustPort(t, srv)
		if err := ps.AddMember(recv); err != nil {
			t.Fatalf("AddMember: %v", err)
		}
		if _, err := srv.ServeSetPool("set", ps, 2, func(_ PortName, m *Message) *Message { return h(m) }); err != nil {
			t.Fatalf("ServeSetPool: %v", err)
		}
		return recv
	}},
}

func mustPort(t *testing.T, task *Task) PortName {
	t.Helper()
	n, err := task.AllocatePort()
	if err != nil {
		t.Fatalf("AllocatePort: %v", err)
	}
	return n
}

// attachPlanes attaches all five observation planes to k, with the
// profiler attributing, and detaches them when the test ends.  The trace
// ring holds far more than serveWorkload emits, so nothing is dropped.
func attachPlanes(t *testing.T, k *Kernel) (*kflight.Recorder, *ktrace.Tracer, *kprof.Profiler) {
	kstat.Attach(k.CPU)
	klat.Attach(k.CPU)
	fr := kflight.Attach(k.CPU)
	tr := ktrace.AttachSized(k.CPU, 4096)
	pr := kprof.Attach(k.CPU)
	pr.Enable()
	t.Cleanup(func() {
		kprof.Detach(k.CPU)
		ktrace.Detach(k.CPU)
		kflight.Detach(k.CPU)
		klat.Detach(k.CPU)
		kstat.Detach(k.CPU)
	})
	return fr, tr, pr
}

func echoPlusOne(m *Message) *Message { return &Message{ID: m.ID + 1, Body: m.Body} }

// serveWorkload drives one client through plain calls, a 3-wide vectored
// call and a final plain call against a server of the given shape,
// failing on any wrong reply.  It returns the number of crossings made.
func serveWorkload(t *testing.T, k *Kernel, shape serveShape) int {
	t.Helper()
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv := shape.start(t, srv, echoPlusOne)
	client := k.NewTask("client")
	t.Cleanup(client.Terminate)
	dest, err := client.InsertRight(srv, recv, DispMakeSend)
	if err != nil {
		t.Fatalf("InsertRight: %v", err)
	}
	th, err := client.NewBoundThread("main")
	if err != nil {
		t.Fatalf("NewBoundThread: %v", err)
	}
	call := func(id MsgID, size int) {
		reply, err := th.Call(dest, &Message{ID: id, Body: make([]byte, size)}, CallOpts{})
		if err != nil || reply.ID != id+1 || len(reply.Body) != size {
			t.Fatalf("%s: Call(%#x) = %+v, %v", shape.name, id, reply, err)
		}
	}
	for i := 0; i < 4; i++ {
		call(MsgID(0x10+i), 32<<i)
	}
	reqs := []*Message{{ID: 0x20, Body: []byte{1}}, {ID: 0x30, Body: []byte{2, 2}}, {ID: 0x40}}
	replies, err := th.CallV(dest, reqs, CallOpts{})
	if err != nil || len(replies) != len(reqs) {
		t.Fatalf("%s: CallV = %d replies, %v", shape.name, len(replies), err)
	}
	for i, r := range replies {
		if r.ID != reqs[i].ID+1 || len(r.Body) != len(reqs[i].Body) {
			t.Fatalf("%s: CallV sub %d = %+v", shape.name, i, r)
		}
	}
	// The same server must keep serving after the carrier.
	call(0x50, 8)
	return 6
}

// Every serving shape runs the same loop and the same receive hand-off,
// so each must look the same to every plane: one kflight recv: event and
// one ktrace serve span per crossing, cycles under a kprof serve: frame,
// and a vectored call answered per sub-request without ending the loop.
func TestServeShapesParity(t *testing.T) {
	for _, shape := range serveShapes {
		t.Run(shape.name, func(t *testing.T) {
			k := newTestKernel()
			fr, tr, pr := attachPlanes(t, k)
			crossings := serveWorkload(t, k, shape)

			recvs := 0
			for _, ev := range fr.EngineEvents(0) {
				if ev.Name == "recv:server" {
					recvs++
				}
			}
			if recvs != crossings {
				t.Errorf("kflight recv:server events = %d, want %d", recvs, crossings)
			}

			spans := 0
			for _, ev := range tr.Events() {
				if ev.Type == ktrace.EvRPCServe && ev.Phase == ktrace.PhaseBegin && strings.HasPrefix(ev.Name, "serve:server") {
					spans++
				}
			}
			if spans != crossings {
				t.Errorf("ktrace serve spans = %d, want %d", spans, crossings)
			}

			var served uint64
			for _, s := range pr.Snapshot().Samples {
				for _, f := range s.Stack {
					if strings.HasPrefix(f, "serve:server") {
						served += s.Cycles
						break
					}
				}
			}
			if served == 0 {
				t.Error("no kprof cycles under a serve:server frame")
			}
		})
	}
}

// Attaching every observation plane must not move a single modeled
// counter, whichever shape serves the calls.  The whole-boot gates boot
// single-threaded servers, so they never reach the pooled set shape.
func TestServeShapesObservationOnly(t *testing.T) {
	for _, shape := range serveShapes {
		t.Run(shape.name, func(t *testing.T) {
			run := func(planes bool) cpu.Counters {
				k := newTestKernel()
				if planes {
					attachPlanes(t, k)
				}
				serveWorkload(t, k, shape)
				return k.CPU.Counters()
			}
			bare, observed := run(false), run(true)
			if bare != observed {
				t.Fatalf("planes moved the model:\n bare     %+v\n observed %+v", bare, observed)
			}
		})
	}
}

// callAllocBudget is the heap allocations of one warmed 32-byte Call with
// the boot-default planes (kstat, kflight, klat) attached, client and
// server side together, measured with go1.24 on linux/amd64.  The planes
// add one object to a bare call, the request's ledger hop; the rest is
// the exchange and its channels, the responder and the two delivered
// header copies.
const callAllocBudget = 9

func TestCallAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k := newTestKernel()
	kstat.Attach(k.CPU)
	kflight.Attach(k.CPU)
	klat.Attach(k.CPU)
	t.Cleanup(func() {
		klat.Detach(k.CPU)
		kflight.Detach(k.CPU)
		kstat.Detach(k.CPU)
	})
	srv := k.NewTask("echo")
	defer srv.Terminate()
	recv := mustPort(t, srv)
	reply := &Message{ID: 1}
	if _, err := srv.Spawn("loop", func(th *Thread) {
		th.Serve(recv, func(*Message) *Message { return reply })
	}); err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	client := k.NewTask("client")
	defer client.Terminate()
	dest, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	type result struct {
		allocs float64
		err    error
	}
	done := make(chan result)
	go func() {
		var err error
		body := make([]byte, 32)
		call := func() {
			if _, cerr := th.Call(dest, &Message{ID: 2, Body: body}, CallOpts{}); cerr != nil {
				err = cerr
			}
		}
		for i := 0; i < 64; i++ {
			call()
		}
		// AllocsPerRun counts the whole process's mallocs, so goroutines
		// left over from earlier tests can only add to a trial: take the
		// best.
		got := testing.AllocsPerRun(200, call)
		for i := 0; i < 4; i++ {
			got = min(got, testing.AllocsPerRun(200, call))
		}
		done <- result{got, err}
	}()
	r := <-done
	if r.err != nil {
		t.Fatalf("Call: %v", r.err)
	}
	t.Logf("%.0f allocs per Call with kstat, kflight and klat attached", r.allocs)
	if r.allocs > callAllocBudget {
		t.Fatalf("%.0f allocs per Call, budget %d", r.allocs, callAllocBudget)
	}
}

// TestWaitRegistrationAllocFree: registering and clearing a blocking
// point rewrites the thread's one wait record in place, and the wait-for
// graph still reads it.
func TestWaitRegistrationAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k := newTestKernel()
	task := k.NewTask("waiter")
	defer task.Terminate()
	name := mustPort(t, task)
	port, _, err := task.portFor(name, RightReceive)
	if err != nil {
		t.Fatal(err)
	}
	th, err := task.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		th.setWait(kflight.WaitReply, port, nil, 7)
		th.clearWait()
	}); n != 0 {
		t.Fatalf("wait registration allocates %.1f objects, want 0", n)
	}
	th.setWait(kflight.WaitReply, port, nil, 7)
	edges := k.WaitEdges()
	th.clearWait()
	if len(edges) != 1 || edges[0].Kind != kflight.WaitReply || edges[0].Op != 7 || edges[0].OwnerTask != "waiter" {
		t.Fatalf("wait-for graph = %+v, want one reply edge to waiter", edges)
	}
	if edges := k.WaitEdges(); len(edges) != 0 {
		t.Fatalf("cleared wait still in the graph: %+v", edges)
	}
}
