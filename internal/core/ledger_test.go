package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/klat"
	"repro/internal/vfs"
)

// freshLedger swaps the booted system's tracker for an empty one, so a
// test sees only its own requests (boot formats the FAT volume through
// the driver outside any request, which rightly mints driver roots).
func freshLedger(s *System) *klat.Tracker {
	klat.Detach(s.Kernel.CPU)
	return klat.Attach(s.Kernel.CPU)
}

// checkNested fails unless every child of h lies inside h's service
// window and the ledger's components partition its end-to-end cycles.
func checkNested(t *testing.T, h *klat.HopDump) {
	t.Helper()
	lo := h.Off + h.Send + h.Queue
	hi := lo + h.Service
	for i := range h.Children {
		c := &h.Children[i]
		if c.Off < lo || c.Off+c.E2E > hi {
			t.Errorf("%s hop %d [%d,%d] outside its parent %s hop %d's service window [%d,%d]",
				c.Server, c.ID, c.Off, c.Off+c.E2E, h.Server, h.ID, lo, hi)
		}
	}
	var sum uint64
	for _, v := range h.Components() {
		sum += v
	}
	if sum != h.E2E {
		t.Errorf("%s hop %d: components sum to %d, e2e %d", h.Server, h.ID, sum, h.E2E)
	}
}

// TestLedgerPooledDriverAttribution: four clients drive a pool=4 file
// server at once on one engine.  Every driver call the file server makes
// goes through its one shared disk thread, so only the request context
// passed down the vnode and device layers can tell whose I/O it is.
// Every driver hop must be a child (none a root) nested inside the
// service window of a file-server request.  Run under -race in tier 2.
func TestLedgerPooledDriverAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerPool = 4
	s, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt := freshLedger(s)

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- poolClient(s, c)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var driverHops uint64
	var trees int
	for _, f := range lt.Dump().Families {
		switch f.Server {
		case "blockdrv":
			driverHops += f.E2E.Count
			if len(f.Exemplars) > 0 {
				t.Errorf("op %#x: %d driver hops became roots", f.Op, len(f.Exemplars))
			}
		case "fileserver":
			for i := range f.Exemplars {
				ex := &f.Exemplars[i]
				for j := range ex.Children {
					if ex.Children[j].Server != "blockdrv" {
						t.Errorf("file-server hop %d has a %s child", ex.ID, ex.Children[j].Server)
					}
				}
				if len(ex.Children) > 0 {
					trees++
				}
				checkNested(t, ex)
			}
		}
	}
	if driverHops == 0 || trees == 0 {
		t.Fatalf("no driver traffic under file-server requests: %d driver hops, %d trees", driverHops, trees)
	}
}

// poolClient opens its own file and writes and reads it back.
func poolClient(s *System, c int) error {
	th, err := s.Kernel.NewTask(fmt.Sprintf("client%d", c)).NewBoundThread("main")
	if err != nil {
		return err
	}
	cl, err := s.Files.NewClient(th, vfs.ProfileOS2)
	if err != nil {
		return err
	}
	f, err := cl.Open(fmt.Sprintf("/C%d.DAT", c), true, true)
	if err != nil {
		return err
	}
	buf := make([]byte, 1536)
	for i := 0; i < 6; i++ {
		off := int64(i * len(buf))
		if _, err := f.WriteAt(buf, off); err != nil {
			return err
		}
		if _, err := f.ReadAt(buf, off); err != nil {
			return err
		}
	}
	return f.Close()
}

// TestLedgerRegistryProfileIO: a registry flush persists the store
// through the file server on the registry's profile-io thread, not the
// thread serving the flush.  Those file operations must stay children
// of the flush request — none may surface as a root.
func TestLedgerRegistryProfileIO(t *testing.T) {
	s := bootDefault(t)
	lt := freshLedger(s)
	th, err := s.Kernel.NewTask("regclient").NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Registry.NewClient(th)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("app", "key", "value"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var flushes, fileChildren int
	for _, f := range lt.Dump().Families {
		switch f.Server {
		case "fileserver":
			if f.E2E.Count == 0 {
				t.Errorf("op %#x: no file-server hops recorded", f.Op)
			}
			if len(f.Exemplars) > 0 {
				t.Errorf("op %#x: %d profile-io file hops became roots", f.Op, len(f.Exemplars))
			}
		case "registry":
			for i := range f.Exemplars {
				ex := &f.Exemplars[i]
				checkNested(t, ex)
				if len(ex.Children) == 0 {
					continue
				}
				flushes++
				for j := range ex.Children {
					if ex.Children[j].Server == "fileserver" {
						fileChildren++
					}
				}
			}
		}
	}
	// Open, Truncate, WriteAt and Close: four file-server crossings.
	if flushes != 1 || fileChildren != 4 {
		t.Fatalf("flush ledgers = %d with %d file-server children, want 1 with 4", flushes, fileChildren)
	}
}
