package bcache_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/fat"
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// TestPooledServerCacheCorrectness runs the buffer cache under a
// pool-of-4 file server on a FAT volume: concurrent clients must see
// their own writes through the cache, and after close + Sync the raw
// device must hold everything (post-Sync durability), verified by
// mounting the device a second time without the cache.  Run under -race
// via scripts/check.sh: the cache is hit from every pool thread at once.
func TestPooledServerCacheCorrectness(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	s, err := vfs.NewServer(k, 4)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	layout := k.Layout()
	s.SetDevCache(func(dev vfs.BlockDev) vfs.CachedDev {
		return bcache.New(k.CPU, layout, dev, bcache.Config{CapacitySectors: 128})
	})
	disk := vfs.NewRAMDisk(16384)
	if err := fat.Format(disk); err != nil {
		t.Fatal(err)
	}
	if err := s.MountVolume("/", fat.New(), disk); err != nil {
		t.Fatalf("MountVolume: %v", err)
	}

	const clients = 6
	payloads := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		payloads[c] = bytes.Repeat([]byte{byte('A' + c)}, 2100)
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := k.NewTask(fmt.Sprintf("app%d", c))
			defer app.Terminate()
			th, err := app.NewBoundThread("main")
			if err != nil {
				errs <- err
				return
			}
			cl, err := s.NewClient(th, vfs.ProfileOS2)
			if err != nil {
				errs <- err
				return
			}
			f, err := cl.Open(fmt.Sprintf("/C%d.DAT", c), true, true)
			if err != nil {
				errs <- fmt.Errorf("client %d open: %w", c, err)
				return
			}
			if _, err := f.WriteAt(payloads[c], 0); err != nil {
				errs <- fmt.Errorf("client %d write: %w", c, err)
				return
			}
			// Read-your-writes through the cache, before any flush.
			got := make([]byte, len(payloads[c]))
			if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
				errs <- fmt.Errorf("client %d read: n=%d %v", c, n, err)
				return
			}
			if !bytes.Equal(got, payloads[c]) {
				errs <- fmt.Errorf("client %d: read-your-writes violated under pooled server", c)
				return
			}
			if err := f.Close(); err != nil {
				errs <- fmt.Errorf("client %d close: %w", c, err)
				return
			}
			if err := cl.Sync(); err != nil {
				errs <- fmt.Errorf("client %d sync: %w", c, err)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Post-Sync durability: a second, uncached mount of the same device
	// must see every file with the right contents.
	check := fat.New()
	if err := check.Mount(disk); err != nil {
		t.Fatalf("verification mount: %v", err)
	}
	for c := 0; c < clients; c++ {
		vn, err := check.Root().Lookup(klat.Ctx{}, fmt.Sprintf("C%d.DAT", c))
		if err != nil {
			t.Fatalf("file C%d.DAT not durable on the raw device: %v", c, err)
		}
		got := make([]byte, len(payloads[c]))
		if n, err := vn.ReadAt(klat.Ctx{}, got, 0); err != nil || n != len(got) {
			t.Fatalf("C%d.DAT raw read: n=%d %v", c, n, err)
		}
		if !bytes.Equal(got, payloads[c]) {
			t.Fatalf("C%d.DAT contents not durable after Sync", c)
		}
	}
}
