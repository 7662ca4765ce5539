// Command tsfiledump inspects chunk files: the footer metadata of every
// chunk (series, version, count, time interval, the four representation
// points and the step-regression model fitted at write time: median Δt,
// segment count and error window) and optionally the decoded points. With
// -mods it lists a delete sidecar's deletes and the bytes past its last
// whole record. It only reads: no file it is given changes.
//
// Usage:
//
//	tsfiledump db/000000.tsf
//	tsfiledump -points db/000000.tsf
//	tsfiledump -mods db/deletes.mods
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"m4lsm/internal/tsfile"
)

func main() {
	var (
		points = flag.Bool("points", false, "also dump decoded points")
		mods   = flag.Bool("mods", false, "treat arguments as .mods delete sidecars")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("tsfiledump: no files given")
	}
	for _, path := range flag.Args() {
		if *mods {
			if err := dumpMods(os.Stdout, path); err != nil {
				log.Fatalf("tsfiledump: %v", err)
			}
			continue
		}
		dumpFile(path, *points)
	}
}

func dumpFile(path string, points bool) {
	r, err := tsfile.Open(path)
	if err != nil {
		log.Fatalf("tsfiledump: %v", err)
	}
	defer r.Close()
	fmt.Printf("%s: %d chunks\n", path, len(r.Metas()))
	for i, m := range r.Metas() {
		fmt.Printf("  [%d] series=%s version=%d count=%d offset=%d bytes=%d\n",
			i, m.SeriesID, m.Version, m.Count, m.Offset,
			int64(m.HeaderLen)+m.TimesLen+m.ValuesLen)
		fmt.Printf("      first=%v last=%v bottom=%v top=%v\n", m.First, m.Last, m.Bottom, m.Top)
		fmt.Printf("      step model: median Δt=%d segments=%d maxErr=%d\n", m.Step.Median, len(m.Step.Changing)+1, m.Step.MaxErr)
		if !points {
			continue
		}
		data, err := r.ReadChunk(m)
		if err != nil {
			log.Fatalf("tsfiledump: chunk %d: %v", i, err)
		}
		ts, vs := data.Times(), data.Values()
		for i, t := range ts {
			fmt.Printf("      %d %g\n", t, vs[i])
		}
	}
}

// dumpMods lists the sidecar at path, read-only, and says how many bytes
// past its last whole record opening the database would set aside.
func dumpMods(w io.Writer, path string) error {
	dels, torn, err := tsfile.ReadModLog(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d deletes\n", path, len(dels))
	for i, d := range dels {
		fmt.Fprintf(w, "  [%d] %v\n", i, d)
	}
	if torn > 0 {
		fmt.Fprintf(w, "  %d torn bytes past the last whole record: opening the database cuts them off and keeps them in a .bad file\n", torn)
	}
	return nil
}
