package drivers

import (
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// SectorDev adapts a BlockDriver (whose operations need a calling
// thread) to the thread-less sector-device interface the file systems
// and the buffer cache consume (vfs.BlockDev).  The bound thread is
// shared by every request the device serves, so each operation's
// request context travels with the operation, not with the thread.
type SectorDev struct {
	drv     BlockDriver
	th      *mach.Thread
	sectors uint64
}

// NewSectorDev binds a driver to a calling thread and a disk size.
func NewSectorDev(drv BlockDriver, th *mach.Thread, sectors uint64) *SectorDev {
	return &SectorDev{drv: drv, th: th, sectors: sectors}
}

// ReadSectors reads len(buf)/SectorSize sectors starting at sector.
func (d *SectorDev) ReadSectors(sector uint64, buf []byte) error {
	return d.ReadSectorsCtx(klat.Ctx{}, sector, buf)
}

// WriteSectors writes data (whole sectors) starting at sector.
func (d *SectorDev) WriteSectors(sector uint64, data []byte) error {
	return d.WriteSectorsCtx(klat.Ctx{}, sector, data)
}

// ReadSectorsCtx is ReadSectors on behalf of the request ctx names.
func (d *SectorDev) ReadSectorsCtx(ctx klat.Ctx, sector uint64, buf []byte) error {
	b, err := d.drv.ReadSectors(ctx, d.th, sector, len(buf)/SectorSize)
	if err != nil {
		return err
	}
	copy(buf, b)
	return nil
}

// WriteSectorsCtx is WriteSectors on behalf of the request ctx names.
func (d *SectorDev) WriteSectorsCtx(ctx klat.Ctx, sector uint64, data []byte) error {
	return d.drv.WriteSectors(ctx, d.th, sector, data)
}

// Sectors returns the device size.
func (d *SectorDev) Sectors() uint64 { return d.sectors }

// BatchDriver is a BlockDriver whose implementation can commit several
// sector runs in one vectored RPC crossing (the user-level driver).
type BatchDriver interface {
	BlockDriver
	WriteSectorsV(ctx klat.Ctx, caller *mach.Thread, runs []vfs.SectorRun) (int, error)
}

// VectorSectorDev is a SectorDev over a batch-capable driver that
// additionally satisfies vfs.BatchDev, which the buffer cache
// type-asserts to flush its whole dirty list in one driver crossing.
// Boots without batching construct a plain SectorDev, so the assert
// fails and the classic one-call-per-run flush path is taken — the
// features-off system never touches the vectored code.
type VectorSectorDev struct {
	SectorDev
	bdrv BatchDriver
}

// NewVectorSectorDev binds a batch-capable driver to a calling thread.
func NewVectorSectorDev(drv BatchDriver, th *mach.Thread, sectors uint64) *VectorSectorDev {
	return &VectorSectorDev{
		SectorDev: SectorDev{drv: drv, th: th, sectors: sectors},
		bdrv:      drv,
	}
}

// WriteSectorsV implements vfs.BatchDev.
func (d *VectorSectorDev) WriteSectorsV(runs []vfs.SectorRun) (int, error) {
	return d.WriteSectorsVCtx(klat.Ctx{}, runs)
}

// WriteSectorsVCtx implements vfs.BatchDev.
func (d *VectorSectorDev) WriteSectorsVCtx(ctx klat.Ctx, runs []vfs.SectorRun) (int, error) {
	return d.bdrv.WriteSectorsV(ctx, d.th, runs)
}

var _ vfs.BatchDev = (*VectorSectorDev)(nil)
