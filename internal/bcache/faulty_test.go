package bcache_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/fat"
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// TestCloseSurfacesWriteBehindError is the write-behind fault-injection
// regression: with the cache absorbing writes, a device failure must
// surface on the flush at close — not leave the client believing a
// "successful" write survived.  After Heal the dirty blocks are still
// cached, so a retry Sync makes the data durable.
func TestCloseSurfacesWriteBehindError(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	s, err := vfs.NewServer(k, 1)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	layout := k.Layout()
	var cache *bcache.Cache
	s.SetDevCache(func(dev vfs.BlockDev) vfs.CachedDev {
		cache = bcache.New(k.CPU, layout, dev, bcache.Config{CapacitySectors: 128})
		return cache
	})
	inner := vfs.NewRAMDisk(16384)
	if err := fat.Format(inner); err != nil {
		t.Fatal(err)
	}
	disk := vfs.NewFaultyDev(inner)
	if err := s.MountVolume("/", fat.New(), disk); err != nil {
		t.Fatalf("MountVolume: %v", err)
	}

	app := k.NewTask("app")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := s.NewClient(th, vfs.ProfileOS2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open("/DATA.BIN", true, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 3000)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("cached write must succeed: %v", err)
	}

	// The device starts failing writes before anything was flushed.
	disk.FailAfter(0, false, true)
	err = f.Close()
	if !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("Close = %v, want ErrIO surfaced from the write-behind flush", err)
	}
	if cache.Dirty() == 0 {
		t.Fatal("failed flush must leave the blocks dirty for retry")
	}

	// Heal and retry: the still-dirty cache flushes cleanly and the data
	// is durable on the raw device.
	disk.Heal()
	if err := cl.Sync(); err != nil {
		t.Fatalf("Sync after Heal: %v", err)
	}
	if cache.Dirty() != 0 {
		t.Fatalf("dirty after healed Sync = %d, want 0", cache.Dirty())
	}
	check := fat.New()
	if err := check.Mount(inner); err != nil {
		t.Fatal(err)
	}
	vn, err := check.Root().Lookup(klat.Ctx{}, "DATA.BIN")
	if err != nil {
		t.Fatalf("DATA.BIN not durable after retry: %v", err)
	}
	got := make([]byte, len(payload))
	if n, err := vn.ReadAt(klat.Ctx{}, got, 0); err != nil || n != len(got) || !bytes.Equal(got, payload) {
		t.Fatalf("DATA.BIN contents wrong after retry: n=%d err=%v", n, err)
	}
}
