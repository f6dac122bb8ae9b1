// driverlab: the three device-driver architectures side by side on the
// same workload — the user-level task model (with HRM request/yield/grant
// and reflected interrupts), the in-kernel BSD style, and Taligent's
// OODDM fine-grained objects — with per-operation cycle costs.
package main

import (
	"fmt"
	"log"

	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/iosys"
	"repro/internal/klat"
	"repro/internal/mach"
)

func main() {
	type build func(k *mach.Kernel, disk *drivers.Disk, hrm *iosys.HRM, intr *iosys.InterruptController) (drivers.BlockDriver, error)
	models := []struct {
		name  string
		build build
	}{
		{"in-kernel BSD-style", func(k *mach.Kernel, d *drivers.Disk, _ *iosys.HRM, ic *iosys.InterruptController) (drivers.BlockDriver, error) {
			return drivers.NewKernelBlockDriver(k, k.Layout(), d, ic)
		}},
		{"OODDM fine-grained", func(k *mach.Kernel, d *drivers.Disk, _ *iosys.HRM, ic *iosys.InterruptController) (drivers.BlockDriver, error) {
			return drivers.NewOODDMBlockDriver(k, k.Layout(), d, ic)
		}},
		{"user-level task", func(k *mach.Kernel, d *drivers.Disk, hrm *iosys.HRM, ic *iosys.InterruptController) (drivers.BlockDriver, error) {
			return drivers.NewUserBlockDriver(k, k.Layout(), d, hrm, ic, 1)
		}},
	}

	fmt.Printf("%-22s %14s %14s %12s\n", "driver model", "write cyc/op", "read cyc/op", "interrupts")
	for _, m := range models {
		k := mach.New(cpu.Pentium133())
		intr := iosys.NewInterruptController(k.CPU, k.Layout(), 32)
		dma := iosys.NewDMAController(k.CPU, k.Layout(), 4)
		hrm := iosys.NewHRM(k.CPU, k.Layout())
		disk, err := drivers.NewDisk(k.CPU, dma, intr, 14, 4096)
		if err != nil {
			log.Fatal(err)
		}
		drv, err := m.build(k, disk, hrm, intr)
		if err != nil {
			log.Fatal(err)
		}
		app := k.NewTask("app")
		th, err := app.NewBoundThread("main")
		if err != nil {
			log.Fatal(err)
		}

		buf := make([]byte, drivers.SectorSize)
		const warm, N = 10, 100
		for i := 0; i < warm; i++ {
			if err := drv.WriteSectors(klat.Ctx{}, th, 0, buf); err != nil {
				log.Fatal(err)
			}
		}
		base := k.CPU.Counters()
		for i := 0; i < N; i++ {
			drv.WriteSectors(klat.Ctx{}, th, 0, buf)
		}
		wcyc := k.CPU.Counters().Sub(base).Cycles / N
		base = k.CPU.Counters()
		for i := 0; i < N; i++ {
			if _, err := drv.ReadSectors(klat.Ctx{}, th, 0, 1); err != nil {
				log.Fatal(err)
			}
		}
		rcyc := k.CPU.Counters().Sub(base).Cycles / N
		fmt.Printf("%-22s %14d %14d %12d\n", m.name, wcyc, rcyc, intr.Count(14))
	}

	// The HRM's request/yield/grant scheme in action.
	fmt.Println("\nhardware resource manager:")
	eng := cpu.NewEngine(cpu.Pentium133())
	hrm := iosys.NewHRM(eng, cpu.NewLayout(0x800000))
	hrm.Register(iosys.Resource{Name: "fb0", Kind: iosys.ResMemory, Base: 0xA0000, Size: 0x10000})
	hrm.Request("fb0", "textdrv", func(r iosys.Resource, who iosys.Owner) bool {
		fmt.Printf("  textdrv asked to yield %s to %s -> yes\n", r.Name, who)
		return true
	})
	if _, err := hrm.Request("fb0", "pmdrv", nil); err != nil {
		log.Fatal(err)
	}
	owner, _ := hrm.Holder("fb0")
	fmt.Printf("  fb0 now held by %s\n", owner)
}
