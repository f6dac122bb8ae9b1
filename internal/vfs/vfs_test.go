package vfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/klat"
	"repro/internal/mach"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want int
		err  bool
	}{
		{"/", 0, false},
		{"/a", 1, false},
		{"/a/b/c", 3, false},
		{"", 0, true},
		{"rel", 0, true},
		{"//x", 0, true},
		{"/a/./b", 0, true},
		{"/a/../b", 0, true},
	}
	for _, c := range cases {
		got, err := SplitPath(c.in)
		if (err != nil) != c.err || (!c.err && len(got) != c.want) {
			t.Errorf("SplitPath(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestMemFSBasics(t *testing.T) {
	fs := NewMemFS()
	root := fs.Root()
	f, err := root.Create(klat.Ctx{}, "hello.txt", false)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := root.Create(klat.Ctx{}, "hello.txt", false); err != ErrExists {
		t.Fatalf("dup err = %v", err)
	}
	if _, err := f.WriteAt(klat.Ctx{}, []byte("world"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	buf := make([]byte, 5)
	n, err := f.ReadAt(klat.Ctx{}, buf, 0)
	if err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("ReadAt: %d %v %q", n, err, buf)
	}
	// Sparse write.
	if _, err := f.WriteAt(klat.Ctx{}, []byte("x"), 100); err != nil {
		t.Fatalf("sparse: %v", err)
	}
	a, _ := f.Attr(klat.Ctx{})
	if a.Size != 101 {
		t.Fatalf("size = %d", a.Size)
	}
	if err := f.Truncate(klat.Ctx{}, 5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	a, _ = f.Attr(klat.Ctx{})
	if a.Size != 5 {
		t.Fatalf("size after truncate = %d", a.Size)
	}
	if err := f.SetEA(klat.Ctx{}, "type", "text"); err != nil {
		t.Fatalf("SetEA: %v", err)
	}
	if v, err := f.GetEA(klat.Ctx{}, "type"); err != nil || v != "text" {
		t.Fatalf("GetEA: %q %v", v, err)
	}
	if _, err := f.GetEA(klat.Ctx{}, "missing"); err != ErrNotFound {
		t.Fatalf("GetEA missing err = %v", err)
	}
}

func TestMemFSCaseSensitive(t *testing.T) {
	fs := NewMemFS()
	root := fs.Root()
	root.Create(klat.Ctx{}, "File", false)
	if _, err := root.Lookup(klat.Ctx{}, "file"); err != ErrNotFound {
		t.Fatalf("memfs must be case-sensitive: %v", err)
	}
	if _, err := root.Create(klat.Ctx{}, "file", false); err != nil {
		t.Fatalf("case variant should coexist: %v", err)
	}
}

func TestDispatcherMountResolution(t *testing.T) {
	d := NewDispatcher()
	rootfs := NewMemFS()
	cfs := NewMemFS()
	if err := d.Mount("/", rootfs); err != nil {
		t.Fatalf("mount /: %v", err)
	}
	if err := d.Mount("/c", cfs); err != nil {
		t.Fatalf("mount /c: %v", err)
	}
	if err := d.Mount("/c", cfs); err != ErrMountBusy {
		t.Fatalf("dup mount err = %v", err)
	}
	// A file under /c goes to cfs.
	fd, err := d.Open(klat.Ctx{}, ProfileOS2, "/c/report.txt", true, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d.WriteAt(klat.Ctx{}, fd, []byte("data"), 0)
	d.Close(fd)
	if _, err := cfs.Root().Lookup(klat.Ctx{}, "report.txt"); err != nil {
		t.Fatalf("file not on /c fs: %v", err)
	}
	if _, err := rootfs.Root().Lookup(klat.Ctx{}, "report.txt"); err != ErrNotFound {
		t.Fatal("file leaked to root fs")
	}
	// Unmount.
	if err := d.Unmount("/c"); err != nil {
		t.Fatalf("Unmount: %v", err)
	}
	if _, err := d.Stat(klat.Ctx{}, "/c/report.txt"); err != ErrNotFound && err != ErrNotMounted {
		t.Fatalf("stat after unmount: %v", err)
	}
}

func TestDispatcherOpenReadWrite(t *testing.T) {
	d := NewDispatcher()
	d.Mount("/", NewMemFS())
	if _, err := d.Open(klat.Ctx{}, ProfileUNIX, "/missing", false, false); err != ErrNotFound {
		t.Fatalf("open missing err = %v", err)
	}
	fd, err := d.Open(klat.Ctx{}, ProfileUNIX, "/f", true, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := d.WriteAt(klat.Ctx{}, fd, []byte("abc"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// A read-only open of the same file cannot write.
	fd2, _ := d.Open(klat.Ctx{}, ProfileUNIX, "/f", false, false)
	if _, err := d.WriteAt(klat.Ctx{}, fd2, []byte("x"), 0); err != ErrReadOnly {
		t.Fatalf("read-only err = %v", err)
	}
	buf := make([]byte, 3)
	if n, _ := d.ReadAt(klat.Ctx{}, fd2, buf, 0); n != 3 || string(buf) != "abc" {
		t.Fatalf("ReadAt: %q", buf)
	}
	if err := d.Close(fd); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(fd); err != ErrBadHandle {
		t.Fatalf("double close err = %v", err)
	}
	if _, err := d.ReadAt(klat.Ctx{}, fd, buf, 0); err != ErrBadHandle {
		t.Fatalf("read after close err = %v", err)
	}
	d.Close(fd2)
	if d.OpenCount() != 0 {
		t.Fatalf("opens = %d", d.OpenCount())
	}
}

func TestDispatcherDirOps(t *testing.T) {
	d := NewDispatcher()
	d.Mount("/", NewMemFS())
	if err := d.Mkdir(klat.Ctx{}, ProfileUNIX, "/docs"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	fd, _ := d.Open(klat.Ctx{}, ProfileUNIX, "/docs/a.txt", true, true)
	d.WriteAt(klat.Ctx{}, fd, []byte("hello"), 0)
	d.Close(fd)
	d.Mkdir(klat.Ctx{}, ProfileUNIX, "/docs/sub")
	ents, err := d.ReadDir(klat.Ctx{}, "/docs")
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if ents[0].Name != "a.txt" || ents[0].Dir || ents[0].Size != 5 {
		t.Fatalf("ent0 = %+v", ents[0])
	}
	if err := d.Remove(klat.Ctx{}, "/docs"); err != ErrNotEmpty {
		t.Fatalf("remove non-empty err = %v", err)
	}
	d.Remove(klat.Ctx{}, "/docs/a.txt")
	d.Remove(klat.Ctx{}, "/docs/sub")
	if err := d.Remove(klat.Ctx{}, "/docs"); err != nil {
		t.Fatalf("remove emptied dir: %v", err)
	}
}

func TestDispatcherRename(t *testing.T) {
	d := NewDispatcher()
	d.Mount("/", NewMemFS())
	d.Mount("/other", NewMemFS())
	fd, _ := d.Open(klat.Ctx{}, ProfileOS2, "/a.txt", true, true)
	d.WriteAt(klat.Ctx{}, fd, []byte("payload"), 0)
	d.Close(fd)
	if err := d.Rename(klat.Ctx{}, ProfileOS2, "/a.txt", "/b.txt"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := d.Stat(klat.Ctx{}, "/a.txt"); err != ErrNotFound {
		t.Fatal("source survived rename")
	}
	a, err := d.Stat(klat.Ctx{}, "/b.txt")
	if err != nil || a.Size != 7 {
		t.Fatalf("dest: %+v %v", a, err)
	}
	if err := d.Rename(klat.Ctx{}, ProfileOS2, "/b.txt", "/other/b.txt"); err != ErrCrossDevice {
		t.Fatalf("cross-device err = %v", err)
	}
}

func newServerRig(t *testing.T) (*mach.Kernel, *Server, *Client) {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	s, err := NewServer(k, 1)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Mount("/", NewMemFS()); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	app := k.NewTask("app")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.NewClient(th, ProfileOS2)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return k, s, c
}

func TestServerFileRoundTrip(t *testing.T) {
	_, s, c := newServerRig(t)
	f, err := c.Open("/work/report.txt", true, true)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("open in missing dir err = %v", err)
	}
	if err := c.Mkdir("/work"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	f, err = c.Open("/work/report.txt", true, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := bytes.Repeat([]byte("wpos"), 600) // crosses the inline limit
	if n, err := f.WriteAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("WriteAt: %d %v", n, err)
	}
	got := make([]byte, len(payload))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(payload) {
		t.Fatalf("ReadAt: %d %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch through RPC")
	}
	a, err := f.Stat()
	if err != nil || a.Size != int64(len(payload)) {
		t.Fatalf("Stat: %+v %v", a, err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if a, _ = f.Stat(); a.Size != 4 {
		t.Fatalf("size = %d", a.Size)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.Disp.OpenCount() != 0 {
		t.Fatalf("opens = %d", s.Disp.OpenCount())
	}
}

func TestServerPortPerOpenFile(t *testing.T) {
	_, s, c := newServerRig(t)
	before := s.Task().PortCount()
	var files []*File
	for i := 0; i < 4; i++ {
		f, err := c.Open("/f"+string(rune('a'+i)), true, true)
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		files = append(files, f)
	}
	after := s.Task().PortCount()
	if after < before+4 {
		t.Fatalf("expected a port per open file: %d -> %d", before, after)
	}
	// Each file answers on its own port.
	for i, f := range files {
		if _, err := f.WriteAt([]byte{byte(i)}, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, f := range files {
		f.Close()
	}
}

func TestServerDirAndEAOps(t *testing.T) {
	_, _, c := newServerRig(t)
	c.Mkdir("/d")
	f, _ := c.Open("/d/x", true, true)
	f.WriteAt([]byte("1"), 0)
	f.Close()
	ents, err := c.ReadDir("/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "x" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if err := c.SetEA("/d/x", ".TYPE", "Plain Text"); err != nil {
		t.Fatalf("SetEA: %v", err)
	}
	if v, err := c.GetEA("/d/x", ".TYPE"); err != nil || v != "Plain Text" {
		t.Fatalf("GetEA: %q %v", v, err)
	}
	if err := c.Rename("/d/x", "/d/y"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if v, _ := c.GetEA("/d/y", ".TYPE"); v != "Plain Text" {
		t.Fatal("EAs lost in rename")
	}
	if err := c.Remove("/d/y"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := c.Stat("/d/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat removed err = %v", err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestWireErrorMapping(t *testing.T) {
	_, _, c := newServerRig(t)
	_, err := c.Open("/enoent", false, false)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("sentinel lost across RPC: %v", err)
	}
}

// Property: data written through the RPC client at any offset reads back
// identically (server-side vnode + wire encoding are faithful).
func TestPropertyServerReadWrite(t *testing.T) {
	_, _, c := newServerRig(t)
	f, err := c.Open("/prop", true, true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 2000 {
			data = data[:2000]
		}
		if _, err := f.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		n, err := f.ReadAt(got, int64(off))
		return err == nil && n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFSOpNames: the per-op names are indexed by message ID, so every ID
// must map to its own name — the trace labels and vfs.ops.<name>
// families that dumps and the benchmark read.
func TestFSOpNames(t *testing.T) {
	want := map[mach.MsgID]string{
		MsgOpen: "open", MsgClose: "close", MsgRead: "read", MsgWrite: "write",
		MsgTruncate: "truncate", MsgStat: "stat", MsgFStat: "fstat", MsgMkdir: "mkdir",
		MsgReadDir: "readdir", MsgRemove: "remove", MsgRename: "rename", MsgSetEA: "setea",
		MsgGetEA: "getea", MsgSync: "sync", MsgReadV: "readv", MsgWriteV: "writev",
		MsgStatBatch: "statbatch", MsgStatBatch + 1: "unknown", MsgOpen - 1: "unknown",
	}
	for id, name := range want {
		op := fsOpOf(id)
		if op.name != name || op.family != "vfs.ops."+name {
			t.Errorf("id %#x: op %+v, want %q", id, *op, name)
		}
	}
}
