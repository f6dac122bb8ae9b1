package main

import (
	"fmt"
	"math/rand"
)

// opKind is one OS/2 client API call of a generated stream.
type opKind uint8

const (
	opOpen opKind = iota
	opClose
	opSeek
	opRead
	opWrite
	opDelete
	opPost // WinPostMsg to the other process
	opGet  // WinGetMsg (the message is always already queued)
	opGfx  // GfxLibCall: the window procedure
)

var opNames = [...]string{"DosOpen", "DosClose", "DosSetFilePtr", "DosRead", "DosWrite", "DosDelete", "WinPostMsg", "WinGetMsg", "GfxLibCall"}

func (k opKind) String() string { return opNames[k] }

// op is one generated call.  File ops name a file by index and carry the
// offset (seek) or transfer size (read/write); opens say whether they
// create.  PM ops name the calling process (0 or 1) and carry the message
// argument or library instruction count.
type op struct {
	kind   opKind
	file   int
	off    int64
	size   int
	create bool
	proc   int
	arg    uint64
}

// stream is one client's generated input: the files it starts with and
// the calls it makes.  The system under test sees only these calls.
type stream struct {
	paths  []string
	init   []int // initial file sizes in bytes
	ops    []op
	starts []int // indices of ops where the warm-up may end
}

const recBytes = 512

// The FI1/FI2 generator follows internal/workload: FI1 (Works) writes
// each of its 4 documents as 40 fresh 512 B records, re-reads them from
// the top and updates 3 in place, 89 calls per document; FI2 (ToDo) runs
// 60 open/seek-to-end/append-46-B/close sessions.  One FI1 run plus one
// FI2 run is 4 document sessions to 60 append sessions, so a block of the
// generated stream holds 1 document session and 15 append sessions.
const (
	fiDocs         = 4  // document files, rewritten in turn
	fiDocRecs      = 40 // records per document, FI1's count
	fiDocJitter    = 8  // a document has fiDocRecs ± fiDocJitter records
	fiUpdates      = 3  // in-place record updates per document session
	fiTodoPerBlock = 15 // append sessions per document session
	fiItemMin      = 32 // ToDo item bytes, min and max (FI2's is 46)
	fiItemMax      = 64
)

// genFI generates blocks of FI1/FI2 sessions in dir until it has at
// least n calls.  Each block is one document session and fiTodoPerBlock
// append sessions in seeded order.  A document session saves a new
// version of a document: it deletes the old one, creates it, writes its
// records, seeks to the top and re-reads them, updates fiUpdates records
// in place and closes it.  An append session opens the ToDo file, seeks
// to its end, appends one item and closes it.  The warm-up ends at a
// block boundary, so every pass and warm-up holds the same mix.
func genFI(rng *rand.Rand, dir string, n int) *stream {
	st := &stream{}
	for f := 0; f < fiDocs; f++ {
		st.paths = append(st.paths, fmt.Sprintf("%s/DOC%d.WKS", dir, f))
		st.init = append(st.init, fiDocRecs*recBytes)
	}
	todo := len(st.paths)
	st.paths = append(st.paths, dir+"/TODO.DAT")
	st.init = append(st.init, 0)
	todoBytes, doc := int64(0), 0
	for len(st.ops) < n {
		st.starts = append(st.starts, len(st.ops))
		for _, s := range rng.Perm(1 + fiTodoPerBlock) {
			if s > 0 {
				todoBytes = appendSession(st, rng, todo, todoBytes)
				continue
			}
			docSession(st, rng, doc)
			doc = (doc + 1) % fiDocs
		}
	}
	return st
}

// appendSession appends FI2's open/seek-to-end/write/close session on
// the ToDo file, which holds size bytes, and returns its new size.
func appendSession(st *stream, rng *rand.Rand, todo int, size int64) int64 {
	item := fiItemMin + rng.Intn(fiItemMax-fiItemMin+1)
	st.ops = append(st.ops,
		op{kind: opOpen, file: todo, create: true},
		op{kind: opSeek, file: todo, off: size},
		op{kind: opWrite, file: todo, size: item},
		op{kind: opClose, file: todo})
	return size + int64(item)
}

// docSession appends FI1's document session on document f.
func docSession(st *stream, rng *rand.Rand, f int) {
	recs := fiDocRecs - fiDocJitter + rng.Intn(2*fiDocJitter+1)
	st.ops = append(st.ops, op{kind: opDelete, file: f}, op{kind: opOpen, file: f, create: true})
	for r := 0; r < recs; r++ {
		st.ops = append(st.ops, op{kind: opWrite, file: f, size: recBytes})
	}
	st.ops = append(st.ops, op{kind: opSeek, file: f})
	for r := 0; r < recs; r++ {
		st.ops = append(st.ops, op{kind: opRead, file: f, size: recBytes})
	}
	for _, r := range rng.Perm(recs)[:fiUpdates] {
		st.ops = append(st.ops,
			op{kind: opSeek, file: f, off: int64(r) * recBytes},
			op{kind: opWrite, file: f, size: recBytes})
	}
	st.ops = append(st.ops, op{kind: opClose, file: f})
}

// fileShape parameterizes the skewed random-transfer generator.
type fileShape struct {
	files    int     // number of files
	recs     int     // size of each file, in 512 B records
	sizes    []int   // transfer sizes a read or write draws from
	skew     float64 // Zipf exponent of the file choice; 0 is uniform
	readFrac float64 // share of transfers that are reads
	seekFrac float64 // chance a transfer first seeks to a random record
	runMin   int     // transfers per open/close session, min
	runMax   int     // transfers per open/close session, max
}

// genFiles generates a closed-loop open/seek/read/write/close stream of
// about n calls over sh.files files of fixed size in dir.  Transfers
// stay inside the files, so reads never run past end of file.
func genFiles(rng *rand.Rand, dir string, sh fileShape, n int) *stream {
	st := &stream{}
	fileBytes := int64(sh.recs * recBytes)
	for f := 0; f < sh.files; f++ {
		st.paths = append(st.paths, fmt.Sprintf("%s/F%02d.DAT", dir, f))
		st.init = append(st.init, int(fileBytes))
	}
	var zipf *rand.Zipf
	if sh.skew > 1 {
		zipf = rand.NewZipf(rng, sh.skew, 1, uint64(sh.files-1))
	}
	for len(st.ops) < n {
		f := rng.Intn(sh.files)
		if zipf != nil {
			f = int(zipf.Uint64())
		}
		st.starts = append(st.starts, len(st.ops))
		st.ops = append(st.ops, op{kind: opOpen, file: f})
		var pos int64
		for run := sh.runMin + rng.Intn(sh.runMax-sh.runMin+1); run > 0; run-- {
			size := int64(sh.sizes[rng.Intn(len(sh.sizes))])
			kind := opWrite
			if rng.Float64() < sh.readFrac {
				kind = opRead
			}
			if pos+size > fileBytes || rng.Float64() < sh.seekFrac {
				pos = rng.Int63n((fileBytes-size)/recBytes+1) * recBytes
				st.ops = append(st.ops, op{kind: opSeek, file: f, off: pos})
			}
			st.ops = append(st.ops, op{kind: kind, file: f, size: int(size)})
			pos += size
		}
		st.ops = append(st.ops, op{kind: opClose, file: f})
	}
	return st
}

// genPM generates about n calls of window-message ping-pong between two
// processes: process 0 posts a burst of 1-4 messages, process 1 takes
// each and runs its window procedure, then replies once, and process 0
// takes the reply and runs its own window procedure.  Every WinGetMsg
// finds its message already queued, so one goroutine drives both sides.
func genPM(rng *rand.Rand, n int) *stream {
	st := &stream{}
	work := func() uint64 { return 1500 + uint64(rng.Intn(3701)) }
	var serial uint64
	for len(st.ops) < n {
		st.starts = append(st.starts, len(st.ops))
		burst := 1 + rng.Intn(4)
		for i := 0; i < burst; i++ {
			serial++
			st.ops = append(st.ops, op{kind: opPost, proc: 0, arg: serial})
		}
		for i := 0; i < burst; i++ {
			st.ops = append(st.ops, op{kind: opGet, proc: 1}, op{kind: opGfx, proc: 1, arg: work()})
		}
		serial++
		st.ops = append(st.ops,
			op{kind: opPost, proc: 1, arg: serial},
			op{kind: opGet, proc: 0},
			op{kind: opGfx, proc: 0, arg: work()})
	}
	return st
}
