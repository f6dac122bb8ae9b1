package jfs

import (
	"errors"
	"testing"

	"repro/internal/klat"
	"repro/internal/vfs"
)

// Fault-injection tests: the journal's job is that a failure or crash
// between commit and checkpoint never loses committed metadata.

func TestHomeWriteFailureAfterCommitIsRecoverable(t *testing.T) {
	raw := vfs.NewRAMDisk(8192)
	if err := Format(raw); err != nil {
		t.Fatal(err)
	}
	dev := vfs.NewFaultyDev(raw)
	fs, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Root().Create(klat.Ctx{}, "committed.txt", false); err != nil {
		t.Fatal(err)
	}
	// Let the journal writes and the commit header through, then fail
	// the home-location writes: journal = journalSecs-1 record sectors
	// + 1 header.
	dev.FailAfter(int(fs.journalSecs), false, true)
	serr := fs.Sync(klat.Ctx{})
	if !errors.Is(serr, vfs.ErrIO) {
		t.Fatalf("sync err = %v, want ErrIO during home writes", serr)
	}
	dev.Heal()
	// Remount the raw device: replay applies the committed transaction.
	fs2, err := Mount(raw)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().Lookup(klat.Ctx{}, "committed.txt"); err != nil {
		t.Fatalf("committed metadata lost after home-write failure: %v", err)
	}
}

func TestJournalWriteFailureLosesNothingOlder(t *testing.T) {
	raw := vfs.NewRAMDisk(8192)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := Mount(dev)
	// First transaction lands fully.
	fs.Root().Create(klat.Ctx{}, "old.txt", false)
	if err := fs.Sync(klat.Ctx{}); err != nil {
		t.Fatal(err)
	}
	// Second transaction: journal write itself fails.
	fs.Root().Create(klat.Ctx{}, "new.txt", false)
	dev.FailAfter(0, false, true)
	if err := fs.Sync(klat.Ctx{}); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("sync err = %v", err)
	}
	dev.Heal()
	fs2, err := Mount(raw)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().Lookup(klat.Ctx{}, "old.txt"); err != nil {
		t.Fatalf("old durable file lost: %v", err)
	}
	// new.txt never committed: it must NOT appear.
	if _, err := fs2.Root().Lookup(klat.Ctx{}, "new.txt"); err != vfs.ErrNotFound {
		t.Fatalf("uncommitted file state = %v", err)
	}
}

func TestDataWriteFailurePropagates(t *testing.T) {
	raw := vfs.NewRAMDisk(8192)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := Mount(dev)
	f, err := fs.Root().Create(klat.Ctx{}, "d.bin", false)
	if err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(0, false, true)
	if _, err := f.WriteAt(klat.Ctx{}, make([]byte, 2048), 0); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v", err)
	}
	dev.Heal()
	if _, err := f.WriteAt(klat.Ctx{}, []byte("fine"), 0); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
}
