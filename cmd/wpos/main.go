// Command wpos boots a complete Workplace OS and drives a short
// demonstration across all three personalities: an OS/2 process, a POSIX
// process and a DOS guest sharing one file server, plus the architecture
// figure and the performance-counter state at the end.
//
// Usage:
//
//	wpos [-driver user|kernel|ooddm] [-mem MB] [-simple-names] [-pool N] [-cache SECTORS] [-cpus N] [-zerocopy] [-batch]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/mvm"
)

func main() {
	boot := cli.BootFlags()
	flag.Parse()

	s := boot.System()
	fmt.Println("Workplace OS booted.")
	for _, l := range s.BootLog() {
		fmt.Println("  *", l)
	}
	fmt.Println()
	fmt.Print(s.RenderFigure1())
	fmt.Println()

	// OS/2 writes a file on the FAT boot volume.
	op, err := s.OS2.CreateProcess("demo.exe")
	cli.Check(err)
	h, e := op.DosOpen("/HELLO.TXT", true, true)
	checkOS2("DosOpen", e == 0)
	_, e = op.DosWrite(h, []byte("hello from OS/2\n"))
	checkOS2("DosWrite", e == 0)
	op.DosClose(h)
	fmt.Println("os2:   wrote /HELLO.TXT through the file server and block driver")

	// POSIX reads it back.
	pp, err := s.POSIX.Spawn("cat")
	cli.Check(err)
	fd, pe := pp.Open("/hello.txt", 0)
	checkOS2("posix open", pe == 0)
	buf := make([]byte, 64)
	n, _ := pp.Read(fd, buf)
	fmt.Printf("posix: read %q (case-folded name on FAT)\n", buf[:n])
	pp.Close(fd)

	// A DOS guest prints through MVM's virtual device drivers.
	v, err := s.MVM.NewVM("hello.com", mvm.Translate)
	cli.Check(err)
	a := mvm.NewAsm()
	for _, ch := range "DOS lives\n" {
		a.MovImm(mvm.AX, 0x0200)
		a.MovImm(mvm.DX, uint16(ch))
		a.Int(0x21)
	}
	a.Hlt()
	prog, err := a.Assemble()
	cli.Check(err)
	cli.Check(v.Load(prog))
	cli.Check(v.Run(100000))
	fmt.Printf("mvm:   guest wrote %q to the console (translated, %d guest instructions)\n",
		s.Console.Contents(), v.GuestInstrs)

	// Name-service view.
	kids, err := s.Names.Search("/", "class", "")
	cli.Check(err)
	fmt.Printf("names: %d bound services: %v\n", len(kids), kids)

	c := s.Kernel.CPU.Counters()
	fmt.Printf("\ncounters after the demo: %s\n", c)

	if s.Kernel.NCPUs() > 1 {
		fmt.Printf("\nengines (%d):\n", s.Kernel.NCPUs())
		for _, st := range s.Kernel.SchedStats() {
			fmt.Printf("  e%d: %12d cycles  %6d dispatches  %4d migrations  %4d steals\n",
				st.Slot, st.Cycles, st.Dispatches, st.Migrations, st.Steals)
		}
	}
}

func checkOS2(op string, ok bool) {
	if !ok {
		fmt.Fprintln(os.Stderr, "wpos:", op, "failed")
		os.Exit(1)
	}
}
