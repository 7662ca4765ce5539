// Command m4cli is an interactive shell over a database directory: it
// accepts m4ql queries (Appendix A.1 syntax), EXPLAIN variants, and a few
// meta commands. Subcommands run one operation and exit:
//
//	m4cli -dir ./db
//	m4cli -dir ./db backup /backups/db-2026-08-08
//	m4cli -dir ./db scrub
//	m4cli -dir ./db load [-sync] [-batch n] <series> <file.csv>
//	m4cli restore /backups/db-2026-08-08 ./db-restored
//	m4cli verify /backups/db-2026-08-08
//	m4> SELECT M4(*) FROM KOB WHERE time >= 0 AND time < 2000000000000 GROUP BY SPANS(10)
//	m4> EXPLAIN SELECT M4(*) FROM KOB WHERE ... GROUP BY SPANS(1000) USING LSM
//	m4> .series
//	m4> .quit
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"m4lsm/internal/buildinfo"
	"m4lsm/internal/csvio"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4ql"
)

func main() {
	dir := flag.String("dir", "m4db", "database directory")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("m4cli " + buildinfo.String())
		return
	}
	if flag.NArg() > 0 {
		if err := runSubcommand(*dir, flag.Args()); err != nil {
			log.Fatalf("m4cli: %v", err)
		}
		return
	}
	engine, err := openEngine(lsm.Options{Dir: *dir})
	if err != nil {
		log.Fatalf("m4cli: %v", err)
	}
	defer engine.Close()
	fmt.Printf("m4cli: %s (%d series). Type .help for commands.\n",
		*dir, len(engine.SeriesIDs()))
	repl(engine, os.Stdin, os.Stdout)
}

// openEngine opens the database, and for a directory a server holds
// open, names the way to back it up that does not need the directory.
func openEngine(opts lsm.Options) (*lsm.Engine, error) {
	engine, err := lsm.Open(opts)
	if errors.Is(err, lsm.ErrLocked) {
		return nil, fmt.Errorf("%w (if a server has it open, back it up over HTTP: POST /admin/backup?dir=<destdir>)", err)
	}
	return engine, err
}

// runSubcommand dispatches the one-shot operations. restore and verify work
// on a backup directory alone and never open the database.
func runSubcommand(dir string, args []string) error {
	switch args[0] {
	case "backup":
		if len(args) != 2 {
			return fmt.Errorf("usage: m4cli -dir <db> backup <destdir>")
		}
		engine, err := openEngine(lsm.Options{Dir: dir})
		if err != nil {
			return err
		}
		defer engine.Close()
		man, err := engine.Backup(args[1])
		if err != nil {
			return err
		}
		var total int64
		for _, f := range man.Files {
			total += f.Size
		}
		fmt.Printf("backup: %d files, %d bytes -> %s\n", len(man.Files), total, args[1])
		return nil
	case "restore":
		if len(args) != 3 {
			return fmt.Errorf("usage: m4cli restore <backupdir> <destdir>")
		}
		if err := lsm.Restore(args[1], args[2]); err != nil {
			return err
		}
		fmt.Printf("restore: %s -> %s\n", args[1], args[2])
		return nil
	case "verify":
		if len(args) != 2 {
			return fmt.Errorf("usage: m4cli verify <backupdir>")
		}
		man, err := lsm.VerifyBackup(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("verify: ok, %d files\n", len(man.Files))
		return nil
	case "load":
		return runLoad(dir, args[1:])
	case "scrub":
		if len(args) != 1 {
			return fmt.Errorf("usage: m4cli -dir <db> scrub")
		}
		engine, err := openEngine(lsm.Options{Dir: dir})
		if err != nil {
			return err
		}
		defer engine.Close()
		rep, err := engine.Scrub(lsm.ScrubOptions{Heal: true})
		if err != nil {
			return err
		}
		fmt.Printf("scrub: chunks checked=%d quarantined=%d, pyramidOK=%v healed=%v\n",
			rep.ChunksChecked, rep.ChunksQuarantined, rep.PyramidOK, rep.Healed)
		for _, e := range rep.Errors {
			fmt.Printf("scrub error: %s\n", e)
		}
		return nil
	}
	return fmt.Errorf("unknown subcommand %q (backup, restore, verify, scrub, load)", args[0])
}

// runLoad bulk-ingests a CSV file (time,value rows; header tolerated) into
// one series through the engine's batched WriteBatch path, chunking the
// file so the bounded ingest queues see a steady stream of group-committed
// batches instead of one giant record.
func runLoad(dir string, args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	sync := fs.Bool("sync", false, "fsync the WAL before acknowledging each batch")
	batch := fs.Int("batch", 4096, "points per WriteBatch entry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: m4cli -dir <db> load [-sync] [-batch n] <series> <file.csv>")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be positive")
	}
	seriesID, path := fs.Arg(0), fs.Arg(1)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := csvio.Read(f, true)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if len(data) == 0 {
		return fmt.Errorf("%s: no points", path)
	}
	engine, err := openEngine(lsm.Options{Dir: dir, SyncWAL: *sync})
	if err != nil {
		return err
	}
	defer engine.Close()
	start := time.Now()
	loaded := 0
	for loaded < len(data) {
		n := *batch
		if rest := len(data) - loaded; rest < n {
			n = rest
		}
		err := engine.WriteBatch(lsm.BatchEntry{SeriesID: seriesID, Points: data[loaded : loaded+n]})
		if errors.Is(err, lsm.ErrIngestBackpressure) {
			continue // bounded queues are draining; same batch, next try
		}
		if err != nil {
			return fmt.Errorf("load after %d points: %w", loaded, err)
		}
		loaded += n
		fmt.Printf("\rload: %d/%d points", loaded, len(data))
	}
	elapsed := time.Since(start)
	fmt.Printf("\rload: %d points -> %s in %s (%.0f points/s)\n",
		loaded, seriesID, elapsed.Round(time.Millisecond),
		float64(loaded)/elapsed.Seconds())
	return nil
}

func repl(engine *lsm.Engine, in io.Reader, out io.Writer) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "m4> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Fprintln(out, `commands:
  SELECT M4(*) FROM <series> WHERE time >= a AND time < b GROUP BY SPANS(w) [USING LSM|UDF]
  EXPLAIN SELECT ...   show the physical plan and measured cost
  .series              list stored series
  .info                storage statistics
  .help                this message
  .quit                exit`)
		case line == ".series":
			for _, id := range engine.SeriesIDs() {
				fmt.Fprintln(out, id)
			}
		case line == ".info":
			info := engine.Info()
			fmt.Fprintf(out, "files=%d chunks=%d memtablePoints=%d deletes=%d nextVersion=%d\n",
				info.Files, info.Chunks, info.MemtablePoints, info.Deletes, info.NextVersion)
		case strings.HasPrefix(line, "."):
			fmt.Fprintf(out, "unknown command %s (try .help)\n", line)
		default:
			res, explain, err := m4ql.RunAny(context.Background(), engine, line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if explain != "" {
				fmt.Fprint(out, explain)
				continue
			}
			fmt.Fprint(out, res.Text())
		}
	}
}
