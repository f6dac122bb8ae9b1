package fat

import (
	"errors"
	"testing"

	"repro/internal/klat"
	"repro/internal/vfs"
)

// Fault-injection tests: device errors must surface as clean errors and
// never wedge the file system.

func TestIOErrorDuringWritePropagates(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	if err := Format(raw); err != nil {
		t.Fatal(err)
	}
	dev := vfs.NewFaultyDev(raw)
	fs, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Root().Create(klat.Ctx{}, "DATA.BIN", false)
	if err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(0, false, true) // all writes fail
	if _, err := f.WriteAt(klat.Ctx{}, make([]byte, 4096), 0); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
	// Heal: the file system keeps working.
	dev.Heal()
	if _, err := f.WriteAt(klat.Ctx{}, []byte("ok"), 0); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	buf := make([]byte, 2)
	if _, err := f.ReadAt(klat.Ctx{}, buf, 0); err != nil || string(buf) != "ok" {
		t.Fatalf("post-heal read: %q %v", buf, err)
	}
}

func TestIOErrorDuringReadPropagates(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := Mount(dev)
	f, _ := fs.Root().Create(klat.Ctx{}, "X.TXT", false)
	f.WriteAt(klat.Ctx{}, []byte("payload"), 0)
	dev.FailAfter(0, true, false)
	buf := make([]byte, 7)
	if _, err := f.ReadAt(klat.Ctx{}, buf, 0); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v", err)
	}
	// Directory operations also surface the error.
	if _, err := fs.Root().ReadDir(klat.Ctx{}); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("readdir err = %v", err)
	}
	dev.Heal()
	if _, err := f.ReadAt(klat.Ctx{}, buf, 0); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
}

func TestMountFailsOnDeadDevice(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	dev.FailAfter(0, true, true)
	if _, err := Mount(dev); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v", err)
	}
	_, _, failures := dev.Stats()
	if failures == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestCreateFailsMidwayLeavesMountableVolume(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := Mount(dev)
	// Let a couple of ops through, then fail writes during a create.
	dev.FailAfter(1, false, true)
	_, cerr := fs.Root().Create(klat.Ctx{}, "NEW.TXT", false)
	dev.Heal()
	// Whatever happened, the volume must still mount and list.
	fs2, err := Mount(raw)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().ReadDir(klat.Ctx{}); err != nil {
		t.Fatalf("readdir after partial create (%v): %v", cerr, err)
	}
}
