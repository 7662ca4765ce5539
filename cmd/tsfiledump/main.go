// Command tsfiledump inspects chunk files: the footer metadata of every
// chunk (series, version, count, time interval and the four representation
// points) and optionally the decoded points.
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
	"log"

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
			dumpMods(path)
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
		fmt.Printf("  [%d] series=%s version=%d count=%d codec=%s offset=%d bytes=%d\n",
			i, m.SeriesID, m.Version, m.Count, m.Codec, m.Offset,
			m.HeaderLen+m.TimesLen+m.ValuesLen)
		fmt.Printf("      first=%v last=%v bottom=%v top=%v\n", m.First, m.Last, m.Bottom, m.Top)
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

func dumpMods(path string) {
	m, err := tsfile.OpenModLog(path)
	if err != nil {
		log.Fatalf("tsfiledump: %v", err)
	}
	defer m.Close()
	fmt.Printf("%s: %d deletes\n", path, len(m.All()))
	for i, d := range m.All() {
		fmt.Printf("  [%d] %v\n", i, d)
	}
}
