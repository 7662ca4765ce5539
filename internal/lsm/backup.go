// Online backup and restore. Backup pins a consistent snapshot of the
// database — immutable chunk files, the mods sidecar, the pyramid manifest
// and the WAL — under the engine lock, hardlinks or copies
// it into a backup directory, and seals the set with a checksummed
// manifest recording each file's size and CRC. A backup without a valid
// manifest (crash mid-backup) is rejected wholesale: restore never guesses
// at a half-written set.
//
// The engine keeps serving during the copy: the lock is held only long
// enough to hardlink immutable files and capture the WAL file's
// record-aligned prefix; CRCs are computed from the backup copies after
// the lock drops.
package lsm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"m4lsm/internal/tsfile"
)

// backupManifestName seals a backup directory; its absence marks the
// backup incomplete.
const backupManifestName = "BACKUP.manifest"

// backupManifestVersion is the current manifest format version.
const backupManifestVersion = 1

var backupMagic = [4]byte{'M', '4', 'B', 'K'}

// BackupFile records one backed-up file's integrity data.
type BackupFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
}

// BackupManifest describes a complete backup set.
type BackupManifest struct {
	CreatedUnix int64        `json:"createdUnix"`
	NextVersion uint64       `json:"nextVersion"` // pinned version watermark
	Files       []BackupFile `json:"files"`
}

// EncodeBackupManifest renders m in the on-disk framing:
// magic "M4BK" | version byte | uint32 JSON length | JSON | CRC32(JSON).
func EncodeBackupManifest(m BackupManifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("backup manifest: %w", err)
	}
	buf := make([]byte, 0, len(body)+13)
	buf = append(buf, backupMagic[:]...)
	buf = append(buf, backupManifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body)), nil
}

// DecodeBackupManifest parses the framing written by EncodeBackupManifest.
// Every failure wraps tsfile.ErrCorrupt: a manifest that does not verify
// byte-for-byte condemns the whole backup.
func DecodeBackupManifest(b []byte) (BackupManifest, error) {
	var m BackupManifest
	if len(b) < 13 {
		return m, fmt.Errorf("%w: backup manifest: %d bytes", tsfile.ErrCorrupt, len(b))
	}
	if [4]byte(b[:4]) != backupMagic {
		return m, fmt.Errorf("%w: backup manifest: bad magic %q", tsfile.ErrCorrupt, b[:4])
	}
	if v := b[4]; v == 0 || v > backupManifestVersion {
		return m, fmt.Errorf("%w: backup manifest: unsupported version %d", tsfile.ErrCorrupt, v)
	}
	n := binary.LittleEndian.Uint32(b[5:9])
	if uint32(len(b)) != 13+n {
		return m, fmt.Errorf("%w: backup manifest: length %d for %d bytes", tsfile.ErrCorrupt, n, len(b))
	}
	body := b[9 : 9+n]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[9+n:]) {
		return m, fmt.Errorf("%w: backup manifest: checksum mismatch", tsfile.ErrCorrupt)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("%w: backup manifest: %v", tsfile.ErrCorrupt, err)
	}
	for _, f := range m.Files {
		if !backupBaseNameOK(f.Name) || f.Size < 0 {
			return m, fmt.Errorf("%w: backup manifest: invalid file entry %q", tsfile.ErrCorrupt, f.Name)
		}
	}
	return m, nil
}

// Backup writes a verified online backup of the database into dir (created
// if missing; must be empty of manifest files). Safe under concurrent
// writers: the snapshot is pinned under the engine lock, so it is exactly
// the state some single instant observed.
func (e *Engine) Backup(dir string) (m BackupManifest, err error) {
	defer func() {
		if err != nil {
			e.backupErrors.Add(1)
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, fmt.Errorf("lsm: backup: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, backupManifestName)); err == nil {
		return m, fmt.Errorf("lsm: backup: %s already holds a backup", dir)
	}

	type capture struct {
		name string
		// exactly one of path (hardlink/copy source) or data is set
		path string
		data []byte
	}
	var caps []capture

	e.mu.Lock()
	if e.closed.Load() {
		e.unlock()
		return m, errEngineClosed
	}
	m.CreatedUnix = time.Now().Unix()
	m.NextVersion = e.nextVer
	// Chunk files are immutable and only unlinked by Compact, which needs
	// the engine lock — blocked while we hold it.
	for _, r := range e.files {
		caps = append(caps, capture{name: filepath.Base(r.Path()), path: r.Path()})
	}
	// The mods sidecar and pyramid manifest are small; capture their bytes
	// outright while mutation is blocked.
	for _, name := range []string{"deletes.mods", pyramidFileName} {
		data, err := os.ReadFile(filepath.Join(e.opts.Dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			e.unlock()
			return m, fmt.Errorf("lsm: backup: %w", err)
		}
		caps = append(caps, capture{name: name, data: data})
	}
	// The WAL file keeps growing after the lock drops, so its
	// record-aligned bytes so far are captured now.
	walPath, walData, err := e.wal.Capture()
	if err != nil {
		e.unlock()
		return m, fmt.Errorf("lsm: backup: %w", err)
	}
	if walPath != "" {
		caps = append(caps, capture{name: filepath.Base(walPath), data: walData})
	}
	// Hardlink the immutable files while still pinned: a link survives the
	// source being unlinked later, and is O(1) regardless of size.
	var linkErr error
	for _, c := range caps {
		if c.path == "" {
			continue
		}
		if err := linkOrCopy(c.path, filepath.Join(dir, c.name)); err != nil {
			linkErr = err
			break
		}
	}
	e.unlock()
	if linkErr != nil {
		return m, fmt.Errorf("lsm: backup: %w", linkErr)
	}

	// The lock is gone; write the captured bytes and compute every CRC from
	// the backup copies, so the manifest attests what is actually in dir.
	var total int64
	for _, c := range caps {
		dst := filepath.Join(dir, c.name)
		if c.path == "" {
			if err := os.WriteFile(dst, c.data, 0o644); err != nil {
				return m, fmt.Errorf("lsm: backup: %w", err)
			}
		}
		size, crc, err := fileCRC(dst)
		if err != nil {
			return m, fmt.Errorf("lsm: backup: %w", err)
		}
		m.Files = append(m.Files, BackupFile{Name: c.name, Size: size, CRC: crc})
		total += size
	}
	if err := e.step("backup.manifest"); err != nil {
		return m, err
	}
	enc, err := EncodeBackupManifest(m)
	if err != nil {
		return m, err
	}
	if err := writeFileAtomic(filepath.Join(dir, backupManifestName), enc); err != nil {
		return m, fmt.Errorf("lsm: backup manifest: %w", err)
	}
	e.backupRuns.Add(1)
	e.backupBytes.Add(total)
	e.lastBackupUnix.Store(m.CreatedUnix)
	return m, nil
}

// VerifyBackup checks a backup directory end to end: the manifest must
// decode and every listed file must match its recorded size and CRC.
func VerifyBackup(dir string) (BackupManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, backupManifestName))
	if err != nil {
		return BackupManifest{}, fmt.Errorf("lsm: backup verify: %w", err)
	}
	m, err := DecodeBackupManifest(data)
	if err != nil {
		return m, fmt.Errorf("lsm: backup verify: %w", err)
	}
	for _, f := range m.Files {
		size, crc, err := fileCRC(filepath.Join(dir, f.Name))
		if err != nil {
			return m, fmt.Errorf("lsm: backup verify %s: %w", f.Name, err)
		}
		if size != f.Size || crc != f.CRC {
			return m, fmt.Errorf("lsm: backup verify %s: %w: size %d crc %08x, manifest says %d/%08x",
				f.Name, tsfile.ErrCorrupt, size, crc, f.Size, f.CRC)
		}
	}
	return m, nil
}

// Restore materializes a verified backup into destDir, which must not yet
// hold a database. The backup is re-verified first, so a torn or tampered
// set is rejected before a single byte lands in destDir.
func Restore(backupDir, destDir string) error {
	m, err := VerifyBackup(backupDir)
	if err != nil {
		return err
	}
	if ents, err := os.ReadDir(destDir); err == nil && len(ents) > 0 {
		return fmt.Errorf("lsm: restore: %s is not empty", destDir)
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("lsm: restore: %w", err)
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return fmt.Errorf("lsm: restore: %w", err)
	}
	for _, f := range m.Files {
		if err := copyFile(filepath.Join(backupDir, f.Name), filepath.Join(destDir, f.Name)); err != nil {
			return fmt.Errorf("lsm: restore: %w", err)
		}
	}
	return nil
}

// linkOrCopy hardlinks src to dst, falling back to a byte copy when the
// backup directory is on another filesystem.
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	} else if errors.Is(err, os.ErrExist) {
		return err
	}
	return copyFile(src, dst)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(dst)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(dst)
		return err
	}
	return out.Close()
}

// fileCRC returns a file's size and whole-file CRC32.
func fileCRC(path string) (int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return n, h.Sum32(), nil
}

// backupBaseNameOK rejects manifest entries that could escape the backup
// directory (path separators, "..", dotfiles).
func backupBaseNameOK(name string) bool {
	return name != "" && name == filepath.Base(name) && !strings.HasPrefix(name, ".")
}
