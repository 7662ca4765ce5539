package lsm

import (
	"fmt"
	"testing"

	"m4lsm/internal/series"
)

// BenchmarkFlush times one automatic flush of 16 series × FlushThreshold
// points, the batch that fills the memtables included, and reports the
// chunk files each flush creates. Under late=10 every tenth point of a
// series falls inside its previous flush, so each flush holds a late run
// and an in-order run per series; they share one file.
func BenchmarkFlush(b *testing.B) {
	const nSeries, threshold = 16, 1000
	for _, late := range []int{0, 10} {
		b.Run(fmt.Sprintf("late=%d", late), func(b *testing.B) {
			e := openTestEngine(b, Options{FlushThreshold: threshold, DisablePyramid: true})
			batch := make([]BatchEntry, nSeries)
			for i := range batch {
				batch[i] = BatchEntry{SeriesID: fmt.Sprintf("root.s%02d", i), Points: make([]series.Point, threshold)}
			}
			round := func(r int) {
				for _, ent := range batch {
					for j := range ent.Points {
						t := int64(r*threshold + j)
						if late > 0 && j%late == late-1 {
							t -= threshold
						}
						ent.Points[j] = series.Point{T: t, V: float64(j % 7)}
					}
				}
				if err := e.WriteBatch(batch...); err != nil {
					b.Fatal(err)
				}
			}
			round(0) // the flush every later point is late or in order to
			files := e.Info().Files
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				round(i)
			}
			b.StopTimer()
			if e.Info().MemtablePoints != 0 {
				b.Fatal("a round did not end in a flush")
			}
			b.ReportMetric(float64(e.Info().Files-files)/float64(b.N), "files/op")
		})
	}
}
