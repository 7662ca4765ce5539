package m4lsm_test

// The repository's architecture rules, stated on objects resolved by
// go/types rather than on strings, so a comment, an alias or a renamed
// variable does not change a verdict. Every package of the module, and of
// the frozen bench/ module (which imports internal packages), is
// type-checked from source; the standard library comes from the
// toolchain's export data, located by one go list call, so nothing is
// downloaded.
// _test.go files are parsed, never type-checked: the rules that read them
// look at declarations and imports only.
//
// TestArchitecture runs each rule as a subtest (go test -run
// 'TestArchitecture/one_read_path' runs one). TestArchitectureMutations
// applies one edit to the sources in memory, nothing written to disk, and
// requires the named rule, and no other, to fail.

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const archModule = "m4lsm"

// archPkg is one package: its non-test files type-checked, its _test.go
// files parsed only.
type archPkg struct {
	path   string // import path
	dir    string // slash-separated, relative to the repo root ("." is the root)
	files  []*ast.File
	names  []string // file paths of files
	tests  []*ast.File
	tnames []string // file paths of tests
	types  *types.Package
	info   *types.Info
	errs   []error
	refs   map[string]bool    // objKey of everything the non-test files refer to
	ifaces []*types.Interface // the interface types they mention, once each
}

// archTree is the source tree as the rules see it.
type archTree struct {
	fset *token.FileSet
	std  types.Importer
	src  map[string][]byte // every .go file, DESIGN.md and the Makefile, by slash path
	root []string          // the files at the repo root
	pkgs map[string]*archPkg
}

// archOnce holds the tree both tests read; rules and mutations never
// change it.
var archOnce struct {
	sync.Once
	tr  *archTree
	err error
}

func loadArchTree(t testing.TB) *archTree {
	t.Helper()
	archOnce.Do(func() { archOnce.tr, archOnce.err = readArchTree() })
	if archOnce.err != nil {
		t.Fatal(archOnce.err)
	}
	return archOnce.tr
}

func readArchTree() (*archTree, error) {
	tr := &archTree{fset: token.NewFileSet(), src: map[string][]byte{}, pkgs: map[string]*archPkg{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		if path.Dir(p) == "." {
			tr.root = append(tr.root, p)
		}
		if strings.HasSuffix(p, ".go") || p == "DESIGN.md" || p == "Makefile" {
			b, err := os.ReadFile(p)
			tr.src[p] = b
			if dir := path.Dir(p); strings.HasSuffix(p, ".go") && tr.pkgs[archImportPath(dir)] == nil {
				tr.pkgs[archImportPath(dir)] = &archPkg{path: archImportPath(dir), dir: dir}
			}
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var std []string
	for name, b := range tr.src {
		if f, err := parser.ParseFile(tr.fset, name, b, parser.ImportsOnly); err == nil && strings.HasSuffix(name, ".go") {
			for _, s := range f.Imports {
				if ip, _ := strconv.Unquote(s.Path.Value); ip != archModule && !strings.HasPrefix(ip, archModule+"/") {
					std = append(std, ip)
				}
			}
		}
	}
	if tr.std, err = stdImporter(tr.fset, std); err != nil {
		return nil, err
	}
	for _, p := range tr.sorted() {
		if p.info == nil {
			tr.check(p)
		}
	}
	return tr, nil
}

// stdImporter imports the standard library from the toolchain's export
// data. importer.Default locates it with one go list run per package (~3 s
// for this tree); this asks for every package the tree imports in one run,
// and for any other on demand.
func stdImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	exports := map[string]string{}
	list := func(paths ...string) error {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...).Output()
		if err != nil {
			return fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, "\t"); ok {
				exports[ip] = file
			}
		}
		return nil
	}
	if err := list(paths...); err != nil {
		return nil, err
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		if exports[ip] == "" {
			if err := list(ip); err != nil {
				return nil, err
			}
		}
		return os.Open(exports[ip])
	}), nil
}

// archImportPath maps a directory to its import path; bench/ is the module
// m4lsm/bench, so one mapping covers both modules.
func archImportPath(dir string) string {
	if dir == "." {
		return archModule
	}
	return archModule + "/" + dir
}

func (tr *archTree) sorted() []*archPkg {
	out := make([]*archPkg, 0, len(tr.pkgs))
	for _, p := range tr.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// Import resolves module packages from source and the rest from the
// toolchain.
func (tr *archTree) Import(ip string) (*types.Package, error) {
	if ip != archModule && !strings.HasPrefix(ip, archModule+"/") {
		return tr.std.Import(ip)
	}
	p := tr.pkgs[ip]
	if p == nil {
		return nil, fmt.Errorf("no package %s in the tree", ip)
	}
	if p.info == nil {
		tr.check(p)
	}
	return p.types, nil
}

// check parses p's files from tr.src and type-checks the non-test ones.
func (tr *archTree) check(p *archPkg) {
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	var names []string
	for f := range tr.src {
		if strings.HasSuffix(f, ".go") && path.Dir(f) == p.dir {
			names = append(names, f)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(tr.fset, name, tr.src[name], parser.SkipObjectResolution)
		if err != nil {
			p.errs = append(p.errs, err)
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			p.tests, p.tnames = append(p.tests, f), append(p.tnames, name)
		} else if inDefaultBuild(tr.src[name]) {
			p.files, p.names = append(p.files, f), append(p.names, name)
		}
	}
	conf := types.Config{Importer: tr, Error: func(err error) { p.errs = append(p.errs, err) }}
	p.types, _ = conf.Check(p.path, tr.fset, p.files, p.info)
	p.refs = map[string]bool{}
	for _, obj := range p.info.Uses {
		p.refs[objKey(obj)] = true
	}
	seen := map[*types.Interface]bool{}
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			p.ifaces = append(p.ifaces, it)
		}
	}
}

// inDefaultBuild reports whether a file belongs to a plain go build: its
// //go:build line, if any, holds with only the platform's GOOS and GOARCH,
// gc and the go1.x release tags set (so a race-only file is left out, and
// its !race twin type-checks alone).
func inDefaultBuild(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return true // the type-check reports what the compiler would
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || strings.HasPrefix(tag, "go1.")
		})
	}
	return true
}

// archEdit replaces the first occurrence of old in file with new; an empty
// old appends new to the file.
type archEdit struct{ file, old, new string }

// mutate returns a copy of tr with the edits applied. Each edited package
// is parsed and checked again against the other packages as they are.
func (tr *archTree) mutate(edits ...archEdit) (*archTree, error) {
	m := &archTree{fset: tr.fset, std: tr.std, root: tr.root,
		src: make(map[string][]byte, len(tr.src)), pkgs: make(map[string]*archPkg, len(tr.pkgs))}
	for k, v := range tr.src {
		m.src[k] = v
	}
	for k, v := range tr.pkgs {
		m.pkgs[k] = v
	}
	for _, e := range edits {
		b, ok := m.src[e.file]
		switch {
		case !ok:
			return nil, fmt.Errorf("no file %s", e.file)
		case e.old == "":
			m.src[e.file] = []byte(string(b) + e.new)
		case !strings.Contains(string(b), e.old):
			return nil, fmt.Errorf("%s does not contain %q", e.file, e.old)
		default:
			m.src[e.file] = []byte(strings.Replace(string(b), e.old, e.new, 1))
		}
		if strings.HasSuffix(e.file, ".go") {
			ip := archImportPath(path.Dir(e.file))
			m.pkgs[ip] = &archPkg{path: ip, dir: path.Dir(e.file)}
		}
	}
	for _, p := range m.sorted() {
		if p.info == nil {
			m.check(p)
		}
	}
	return m, nil
}

// archRef is one site a rule found.
type archRef struct {
	file string // slash path
	fn   string // enclosing top-level function or method, "" at package level
	line int
}

func (r archRef) String() string {
	if r.fn == "" {
		return fmt.Sprintf("%s:%d", r.file, r.line)
	}
	return fmt.Sprintf("%s:%d (%s)", r.file, r.line, r.fn)
}

// find lists the nodes of the packages' non-test files that match accepts.
func (tr *archTree) find(pkgs []*archPkg, match func(p *archPkg, n ast.Node) bool) []archRef {
	var out []archRef
	for _, p := range pkgs {
		for i, f := range p.files {
			for _, d := range f.Decls {
				fn := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if n != nil && match(p, n) {
						out = append(out, archRef{file: p.names[i], fn: fn, line: tr.fset.Position(n.Pos()).Line})
					}
					return true
				})
			}
		}
	}
	return out
}

// uses matches identifiers that refer to an object keep accepts.
func uses(keep func(types.Object) bool) func(p *archPkg, n ast.Node) bool {
	return func(p *archPkg, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.info.Uses[id]
		return obj != nil && keep(obj)
	}
}

// stringLit matches string literals containing sub; comments never match.
func stringLit(sub string) func(p *archPkg, n ast.Node) bool {
	return func(p *archPkg, n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, err := strconv.Unquote(lit.Value)
		return err == nil && strings.Contains(s, sub)
	}
}

// pkgsUnder lists the packages at each dir or below it ("." is the root
// package alone).
func (tr *archTree) pkgsUnder(dirs ...string) []*archPkg {
	var out []*archPkg
	for _, p := range tr.sorted() {
		for _, d := range dirs {
			if p.dir == d || d != "." && strings.HasPrefix(p.dir, d+"/") {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// pkgsOutside lists the packages not under any of dirs.
func (tr *archTree) pkgsOutside(dirs ...string) []*archPkg {
	under := map[*archPkg]bool{}
	for _, p := range tr.pkgsUnder(dirs...) {
		under[p] = true
	}
	var out []*archPkg
	for _, p := range tr.sorted() {
		if !under[p] {
			out = append(out, p)
		}
	}
	return out
}

// recvType is the type a method is declared on, pointer stripped (nil for
// a function).
func recvType(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	return rt
}

// objKey names a package-level object or a method the same way whichever
// type-check produced it: "m4lsm/internal/lsm.Engine.Snapshot".
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if n, ok := recvType(obj).(*types.Named); ok {
		return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// is accepts the objects with the given keys, relative to the module
// ("internal/lsm.Engine.Snapshot").
func is(keys ...string) func(types.Object) bool {
	return func(obj types.Object) bool {
		k := objKey(obj)
		for _, want := range keys {
			if k == archModule+"/"+want {
				return true
			}
		}
		return false
	}
}

// onlyAt reports unless refs are exactly one site per want entry ("file"
// or "file:func"), in order.
func onlyAt(what string, refs []archRef, want ...string) []string {
	ok := len(refs) == len(want)
	for i := 0; ok && i < len(refs); i++ {
		file, fn, _ := strings.Cut(want[i], ":")
		ok = refs[i].file == file && (fn == "" || refs[i].fn == fn)
	}
	if ok {
		return nil
	}
	found := make([]string, len(refs))
	for i, r := range refs {
		found[i] = r.String()
	}
	return []string{fmt.Sprintf("%s: want exactly [%s], found [%s]", what, strings.Join(want, ", "), strings.Join(found, ", "))}
}

// onlyWithin reports unless every site in refs is at one of the allowed
// entries ("file" or "file:func") and every entry holds at least one.
func onlyWithin(what string, refs []archRef, allowed ...string) []string {
	var out []string
	hit := make([]bool, len(allowed))
	for _, r := range refs {
		ok := false
		for i, a := range allowed {
			file, fn, _ := strings.Cut(a, ":")
			if r.file == file && (fn == "" || r.fn == fn) {
				ok, hit[i] = true, true
			}
		}
		if !ok {
			out = append(out, fmt.Sprintf("%s: %s outside [%s]", r, what, strings.Join(allowed, ", ")))
		}
	}
	for i, a := range allowed {
		if !hit[i] {
			out = append(out, fmt.Sprintf("%s: none at %s", what, a))
		}
	}
	return out
}

// none reports every site in refs.
func none(what string, refs []archRef) []string {
	var out []string
	for _, r := range refs {
		out = append(out, fmt.Sprintf("%s: %s", r, what))
	}
	return out
}

// imports lists the import paths of p's files by file, tests included
// when withTests is set.
func (p *archPkg) imports(withTests bool) map[string][]string {
	out := map[string][]string{}
	add := func(names []string, files []*ast.File) {
		for i, f := range files {
			for _, s := range f.Imports {
				ip, _ := strconv.Unquote(s.Path.Value)
				out[names[i]] = append(out[names[i]], ip)
			}
		}
	}
	add(p.names, p.files)
	if withTests {
		add(p.tnames, p.tests)
	}
	return out
}

// deps is the transitive closure of p's non-test module imports, plus
// the direct imports of its tests when withTests is set.
func (tr *archTree) deps(p *archPkg, withTests bool) map[string]bool {
	seen := map[string]bool{}
	var walk func(p *archPkg, withTests bool)
	walk = func(p *archPkg, withTests bool) {
		for _, ips := range p.imports(withTests) {
			for _, ip := range ips {
				if q := tr.pkgs[ip]; q != nil && !seen[ip] {
					seen[ip] = true
					walk(q, false)
				}
			}
		}
	}
	walk(p, withTests)
	return seen
}

// archRule is one architecture rule: check returns its violations.
type archRule struct {
	name  string
	check func(tr *archTree) []string
}

// archRules is set in init: ruleDesignInvariants reads the rule names.
var archRules []archRule

func init() {
	archRules = []archRule{
		{"one_read_path", ruleOneReadPath},
		{"one_merge_all_read", ruleOneMergeAllRead},
		{"one_task_shape", ruleOneTaskShape},
		{"no_query_goroutines", ruleNoQueryGoroutines},
		{"public_examples", rulePublicExamples},
		{"one_write_path", ruleOneWritePath},
		{"sorted_on_write", ruleSortedOnWrite},
		{"one_wal_file", ruleOneWALFile},
		{"one_chunk_writer", ruleOneChunkWriter},
		{"fit_at_write", ruleFitAtWrite},
		{"one_measurement_stack", ruleOneMeasurementStack},
		{"columnar_read_path", ruleColumnarReadPath},
		{"recycle_at_query_end", ruleRecycleAtQueryEnd},
		{"one_engine_lock", ruleOneEngineLock},
		{"one_admission_gate", ruleOneAdmissionGate},
		{"one_query_encoder", ruleOneQueryEncoder},
		{"no_engine_goroutines", ruleNoEngineGoroutines},
		{"no_library_sleeps", ruleNoLibrarySleeps},
		{"design_invariants", ruleDesignInvariants},
		{"production_api", ruleProductionAPI},
		{"knobs_have_callers", ruleKnobsHaveCallers},
	}
}

// ruleOneReadPath: queries take their snapshots in one place, m4ql.Read.
// The query surfaces (the root package, m4ql, server and the commands)
// refer to the engine's Snapshot once, in internal/m4ql/exec.go's Read; the
// server calls m4ql's executor (its functions that take the engine) twice:
// in serve, the one pipeline of /query and /render, and in the UI's series
// listing, listSeries.
func ruleOneReadPath(tr *archTree) []string {
	surfaces := tr.pkgsUnder(".", "cmd", "internal/m4ql", "internal/server")
	out := onlyAt("engine Snapshot references", tr.find(surfaces, uses(is("internal/lsm.Engine.Snapshot"))),
		"internal/m4ql/exec.go:Read")
	takesEngine := func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != archModule+"/internal/m4ql" {
			return false
		}
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if ptr, ok := params.At(i).Type().(*types.Pointer); ok {
				if n, ok := ptr.Elem().(*types.Named); ok && is("internal/lsm.Engine")(n.Obj()) {
					return true
				}
			}
		}
		return false
	}
	return append(out, onlyAt("server calls of m4ql's executor", tr.find(tr.pkgsUnder("internal/server"), uses(takesEngine)),
		"internal/server/server.go:serve", "internal/server/ui.go:listSeries")...)
}

// ruleOneMergeAllRead: chunks are loaded for a merge in one place,
// mergeread's load, referred to once, by mergeread.Read (the UDF baseline,
// LTTB and GROUP BY's scan are folds over it).
func ruleOneMergeAllRead(tr *archTree) []string {
	return onlyAt("mergeread load references", tr.find(tr.pkgsUnder("internal/mergeread"), uses(is("internal/mergeread.load"))),
		"internal/mergeread/mergeread.go:Read")
}

// ruleNoQueryGoroutines: a query runs on its caller's goroutine. The
// operator packages start no goroutine and hold no WaitGroup or mutex:
// every chunk state, scratch and counter a query touches is its own, and
// concurrency lives between requests, above the operators.
func ruleNoQueryGoroutines(tr *archTree) []string {
	ops := tr.pkgsUnder("internal/m4lsm", "internal/m4udf", "internal/mergeread", "internal/groupby")
	out := none("go statement in an operator package",
		tr.find(ops, func(_ *archPkg, n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }))
	return append(out, none("WaitGroup or mutex in an operator package",
		tr.find(ops, uses(func(obj types.Object) bool {
			return slices.Contains([]string{"sync.WaitGroup", "sync.Mutex", "sync.RWMutex"}, objKey(obj))
		})))...)
}

// ruleOneTaskShape: spans and pyramid fragments are chunk lists run by the
// same two waves in one function: the candidate loop's entry,
// operator.computeG, is called in timedG alone, timedG in runWave alone,
// and runWave twice, both times by computeMultiKinds (wave 1, then wave
// 2). m4lsm has one FP-substitution warning, in assemble.
func ruleOneTaskShape(tr *archTree) []string {
	m4lsm := tr.pkgsUnder("internal/m4lsm")
	refs := func(key string) []archRef { return tr.find(m4lsm, uses(is(key))) }
	out := onlyWithin("operator.computeG references", refs("internal/m4lsm.operator.computeG"),
		"internal/m4lsm/m4lsm.go:timedG")
	out = append(out, onlyWithin("operator.timedG references", refs("internal/m4lsm.operator.timedG"),
		"internal/m4lsm/m4lsm.go:runWave")...)
	out = append(out, onlyAt("runWave references", refs("internal/m4lsm.runWave"),
		"internal/m4lsm/m4lsm.go:computeMultiKinds", "internal/m4lsm/m4lsm.go:computeMultiKinds")...)
	return append(out, onlyAt(`"substituted FP" warnings in m4lsm`, tr.find(m4lsm, stringLit("substituted FP")),
		"internal/m4lsm/plan.go:assemble")...)
}

// rulePublicExamples: examples use the public package only, so an outside
// module can build them.
func rulePublicExamples(tr *archTree) []string {
	var out []string
	for _, p := range tr.pkgsUnder("examples") {
		for file, ips := range p.imports(true) {
			for _, ip := range ips {
				if strings.HasPrefix(ip, archModule+"/internal/") {
					out = append(out, fmt.Sprintf("%s imports %s; examples use the public package only", file, ip))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// ruleOneAdmissionGate: each request class has one admission control.
// /query and /render pass the one gate server.NewWith builds, and /write
// is admitted by the engine's ingest queue alone, so outside govern (and
// bench/) govern.NewGate is referenced once, in NewWith.
func ruleOneAdmissionGate(tr *archTree) []string {
	return onlyAt("govern.NewGate references", tr.find(tr.pkgsOutside("internal/govern", "bench"), uses(is("internal/govern.NewGate"))),
		"internal/server/server.go:NewWith")
}

// ruleOneQueryEncoder: /query's answer is written by m4ql's one encoder,
// Outcome.AppendJSON, straight from the typed outputs, so internal/server
// never refers to Outcome.Result, whose float64 rows round every time
// above 2^53.
func ruleOneQueryEncoder(tr *archTree) []string {
	return none("m4ql.Outcome.Result in the server; write the answer with Outcome.AppendJSON",
		tr.find(tr.pkgsUnder("internal/server"), uses(is("internal/m4ql.Outcome.Result"))))
}

// ruleOneWritePath: inserts reach a memtable in one place, memAppend
// (internal/lsm/ingest.go), called by applyRun and WAL replay, and deletes
// in one more, applyDeleteToMem beside it; the log is
// reached through internal/wal's methods only: lsm, tests included, has no
// walMu or walAppend, only wal and tsfile (and bench/) open a record log,
// and only wal (and bench/) spells a WAL file name, "wal.log" or the
// "wal-" of an older build's segments.
func ruleOneWritePath(tr *archTree) []string {
	lsm := tr.pkgsUnder("internal/lsm")
	// A memtable write is m[k] = v into a map of the type of Engine.mem,
	// however the map is reached.
	memWrite := func(p *archPkg, n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return false
		}
		ix, ok := as.Lhs[0].(*ast.IndexExpr)
		engine := p.types.Scope().Lookup("Engine")
		if !ok || engine == nil {
			return false
		}
		mem, _, _ := types.LookupFieldOrMethod(engine.Type(), true, p.types, "mem")
		return mem != nil && types.Identical(p.info.TypeOf(ix.X), mem.Type())
	}
	out := onlyAt("memtable writes", tr.find(lsm, memWrite),
		"internal/lsm/ingest.go:applyDeleteToMem", "internal/lsm/ingest.go:memAppend")
	for _, p := range lsm {
		files, names := append(append([]*ast.File{}, p.files...), p.tests...), append(append([]string{}, p.names...), p.tnames...)
		for i, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (id.Name == "walMu" || id.Name == "walAppend") {
					out = append(out, fmt.Sprintf("%s:%d: %s in lsm; the WAL is internal/wal's", names[i], tr.fset.Position(id.Pos()).Line, id.Name))
				}
				return true
			})
		}
	}
	out = append(out, none("record log opened outside internal/wal and internal/tsfile",
		tr.find(tr.pkgsOutside("internal/wal", "internal/tsfile", "bench"), uses(is("internal/tsfile.OpenRecordLog"))))...)
	walName := func(p *archPkg, n ast.Node) bool { return stringLit("wal.log")(p, n) || stringLit("wal-")(p, n) }
	return append(out, none("WAL file name outside internal/wal", tr.find(tr.pkgsOutside("internal/wal", "bench"), walName))...)
}

// ruleSortedOnWrite: a series' memtable is kept sorted and deduplicated as
// it is written (memAppend), so a snapshot borrows it and a flush writes it
// as it is; no code in internal/lsm sorts it again with series.SortDedup.
func ruleSortedOnWrite(tr *archTree) []string {
	return none("series.SortDedup in lsm; the memtable is sorted on write",
		tr.find(tr.pkgsUnder("internal/lsm"), uses(is("internal/series.SortDedup"))))
}

// ruleOneWALFile: the write-ahead log is one file that never rotates, and
// it and the delete sidecar are the only record logs: within wal and
// tsfile, tsfile.OpenRecordLog is referenced in tsfile.OpenModLog and
// wal.Open alone.
func ruleOneWALFile(tr *archTree) []string {
	return onlyAt("tsfile.OpenRecordLog references", tr.find(tr.pkgsUnder("internal/tsfile", "internal/wal"), uses(is("internal/tsfile.OpenRecordLog"))),
		"internal/tsfile/mods.go:OpenModLog", "internal/wal/log.go:Open")
}

// ruleOneChunkWriter: chunk files are written in one place, writeChunkFile
// (internal/lsm/flush.go), for flush and compaction alike; internal/pyramid
// knows nothing of the engine, the WAL or the chunk format.
func ruleOneChunkWriter(tr *archTree) []string {
	out := onlyAt("tsfile.Create references in lsm", tr.find(tr.pkgsUnder("internal/lsm"), uses(is("internal/tsfile.Create"))),
		"internal/lsm/flush.go:writeChunkFile")
	for _, p := range tr.pkgsUnder("internal/pyramid") {
		deps := tr.deps(p, false)
		for _, bad := range []string{"lsm", "wal", "tsfile"} {
			if deps[archModule+"/internal/"+bad] {
				out = append(out, fmt.Sprintf("%s depends on internal/%s", p.path, bad))
			}
		}
	}
	return out
}

// ruleFitAtWrite: a chunk's step-regression model is fitted once, by the
// chunk writer (tsfile's WriteChunk), kept in the footer and bound to the
// loaded timestamps with stepreg.Bind; no other code fits one. Exempt:
// stepreg itself, and bench/, its own module, which times the fit as a
// layer.
func ruleFitAtWrite(tr *archTree) []string {
	return onlyAt("stepreg.Fit/Build references", tr.find(tr.pkgsOutside("bench", "internal/stepreg"), uses(is("internal/stepreg.Fit", "internal/stepreg.Build"))),
		"internal/tsfile/writer.go:WriteChunk")
}

// ruleOneMeasurementStack: numbers come from one place, bash bench/run.sh
// (spec in BENCHMARK.json); internal/exper only regenerates the paper's
// tables. No BENCH_*.json at the root, no bench-* make target but
// bench-check and bench-smoke, no root-package Benchmark, and exper
// depends on neither the server nor the self-metrics history. Per-package
// micro-benchmarks beside their code are fine: make microbench runs them.
func ruleOneMeasurementStack(tr *archTree) []string {
	var out []string
	for _, f := range tr.root {
		if ok, _ := path.Match("BENCH_*.json", f); ok {
			out = append(out, f+": a second results file; results come from bench/run.sh")
		}
	}
	target := regexp.MustCompile(`^bench-[a-z-]*:`)
	for i, line := range strings.Split(string(tr.src["Makefile"]), "\n") {
		if target.MatchString(line) && !strings.HasPrefix(line, "bench-check:") && !strings.HasPrefix(line, "bench-smoke:") {
			out = append(out, fmt.Sprintf("Makefile:%d: %s is a second benchmark target", i+1, line))
		}
	}
	root := tr.pkgs[archModule]
	for i, f := range root.tests {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Benchmark") {
				out = append(out, fmt.Sprintf("%s: root-package %s; benchmarks live in bench/", root.tnames[i], fd.Name.Name))
			}
		}
	}
	for _, p := range tr.pkgsUnder("internal/exper") {
		deps := tr.deps(p, true)
		for _, bad := range []string{"internal/server", "internal/obs/history"} {
			if deps[archModule+"/"+bad] {
				out = append(out, fmt.Sprintf("%s depends on %s; speed sweeps are bench/ workloads", p.path, bad))
			}
		}
	}
	return out
}

// ruleColumnarReadPath: a chunk is loaded, cached, merged and scanned as
// series.Columns, whose Times()/Values() are the shared slices. Building
// rows from columns or columns from rows (FromColumns, the Points and
// Columns methods) belongs to whoever asked for rows or was handed them,
// never to tsfile's reader, cache, mergeread, m4lsm or m4udf.
func ruleColumnarReadPath(tr *archTree) []string {
	rows := func(obj types.Object) bool {
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
		return obj.Name() == "FromColumns" || recvType(obj) != nil && (obj.Name() == "Points" || obj.Name() == "Columns")
	}
	var refs []archRef
	for _, r := range tr.find(tr.pkgsUnder("internal/tsfile", "internal/cache", "internal/mergeread", "internal/m4lsm", "internal/m4udf"), uses(rows)) {
		if !strings.HasPrefix(r.file, "internal/tsfile/") || r.file == "internal/tsfile/reader.go" {
			refs = append(refs, r)
		}
	}
	return none("rows built on the columnar read path", refs)
}

// ruleRecycleAtQueryEnd: what a query owns goes back when the query ends,
// once its workers have joined, and only its owner hands it back. A query
// hands the columns its uncached loads decoded back to their sources, and
// only the two owners of a query's loads do it: computeMultiKinds (M4-LSM
// and MinMax) and mergeread.Read (every merge-all read). The slice pools
// are refilled only by the column reader, the operator's recycle (a plan's
// tables through seriesPlan.release, which computeMultiKinds alone calls),
// ReduceMultiContext's flatten, GROUP BY's fold of the aggregates into rows
// (groupby's computeFromM4), Outcome.Release and Canvas.Release; the
// server's serve is the one caller of Outcome.Release, after the response
// is written, and /render the one caller of Canvas.Release. No task
// recycles what another task may still read, and storage's in-memory
// chunk, whose columns a memtable shares with the snapshots that borrowed
// them, has no Recycle method at all.
func ruleRecycleAtQueryEnd(tr *archTree) []string {
	refs := func(key string) []archRef { return tr.find(tr.sorted(), uses(is(key))) }
	var out []string
	if st := tr.pkgs[archModule+"/internal/storage"].types; st.Scope().Lookup("memChunk") == nil {
		out = append(out, "internal/storage declares no memChunk")
	} else if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(st.Scope().Lookup("memChunk").Type()), true, st, "Recycle"); m != nil {
		out = append(out, "storage.memChunk has a Recycle method: memtable columns would be recycled")
	}
	out = append(out, onlyAt("storage.ChunkRef.Recycle references", refs("internal/storage.ChunkRef.Recycle"),
		"internal/m4lsm/m4lsm.go:computeMultiKinds", "internal/mergeread/mergeread.go:Read")...)
	out = append(out, onlyWithin("slicepool.Pool.Put references", refs("internal/slicepool.Pool.Put"),
		"internal/m4lsm/m4lsm.go:computeMultiKinds", "internal/m4lsm/plan.go:release",
		"internal/m4lsm/reduce.go:ReduceMultiContext", "internal/groupby/groupby.go:computeFromM4",
		"internal/m4ql/exec.go:Release",
		"internal/tsfile/reader.go", "internal/viz/viz.go:Release")...)
	out = append(out, onlyAt("seriesPlan.release references", refs("internal/m4lsm.seriesPlan.release"),
		"internal/m4lsm/m4lsm.go:computeMultiKinds")...)
	out = append(out, onlyAt("m4ql.Outcome.Release references", refs("internal/m4ql.Outcome.Release"),
		"internal/server/server.go:serve")...)
	return append(out, onlyAt("viz.Canvas.Release references", refs("internal/viz.Canvas.Release"),
		"internal/server/render.go:render")...)
}

// ruleOneEngineLock: the state the engine owns has one lock. lsm.Engine
// declares exactly two mutex fields, mu and scrubMu (a scrub pass does
// long I/O outside mu), and the mods sidecar, tsfile.ModLog, declares none:
// its caller serializes it. A mutex counts however a field holds it:
// directly, behind a pointer, in a slice, array or map, or inside a struct,
// unnamed or declared in lsm or tsfile. The one leaf is Engine.ing, the
// ingest queue, whose lock writers take while a drainer holds mu.
func ruleOneEngineLock(tr *archTree) []string {
	var out []string
	for _, c := range []struct {
		pkg, typ     string
		want, leaves []string
	}{{"internal/lsm", "Engine", []string{"mu", "scrubMu"}, []string{"ing"}}, {"internal/tsfile", "ModLog", nil, nil}} {
		p := tr.pkgs[archModule+"/"+c.pkg]
		obj := p.types.Scope().Lookup(c.typ)
		if obj == nil {
			out = append(out, fmt.Sprintf("%s declares no %s", c.pkg, c.typ))
			continue
		}
		var got []string
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !slices.Contains(c.leaves, f.Name()) && holdsMutex(f.Type(), map[*types.Named]bool{}) {
				got = append(got, f.Name())
			}
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			out = append(out, fmt.Sprintf("%s.%s mutex fields: want [%s], found [%s]", c.pkg, c.typ,
				strings.Join(c.want, ", "), strings.Join(got, ", ")))
		}
	}
	return out
}

// ruleNoEngineGoroutines: the storage engine starts no goroutine. A writer
// commits its own batch (and whatever queued behind it) under the engine's
// lock, so lsm, wal, pyramid and tsfile hold no go statement: every
// background lifecycle — start, drain, kill, join — lives with the caller.
func ruleNoEngineGoroutines(tr *archTree) []string {
	return none("go statement in the storage engine",
		tr.find(tr.pkgsUnder("internal/lsm", "internal/wal", "internal/pyramid", "internal/tsfile"),
			func(_ *archPkg, n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }))
}

// ruleNoLibrarySleeps: library code does not sleep. A wait belongs to a
// caller that can cancel it, so no non-test file of the root package or
// under internal/ references time.Sleep, however it is named or imported;
// faultfs alone does, to inject latency.
func ruleNoLibrarySleeps(tr *archTree) []string {
	var pkgs []*archPkg
	for _, p := range tr.pkgsUnder(".", "internal") {
		if p.dir != "internal/faultfs" {
			pkgs = append(pkgs, p)
		}
	}
	return none("time.Sleep in library code", tr.find(pkgs, uses(func(obj types.Object) bool { return objKey(obj) == "time.Sleep" })))
}

// holdsMutex reports whether a value of type t is or contains a
// sync.Mutex or sync.RWMutex, through pointers, slices, arrays, maps and
// structs: unnamed ones and the named ones lsm and tsfile declare. seen
// stops the walk at a named type already entered.
func holdsMutex(t types.Type, seen map[*types.Named]bool) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return holdsMutex(t.Elem(), seen)
	case *types.Slice:
		return holdsMutex(t.Elem(), seen)
	case *types.Array:
		return holdsMutex(t.Elem(), seen)
	case *types.Map:
		return holdsMutex(t.Key(), seen) || holdsMutex(t.Elem(), seen)
	case *types.Named:
		o := t.Obj()
		if o.Pkg() == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch o.Pkg().Path() {
		case "sync":
			return o.Name() == "Mutex" || o.Name() == "RWMutex"
		case archModule + "/internal/lsm", archModule + "/internal/tsfile":
			return holdsMutex(t.Underlying(), seen)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if holdsMutex(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// ruleDesignInvariants: every invariant in DESIGN.md's table names the
// tests, fuzzers or architecture rules that enforce it, and each name
// resolves: a Test or Fuzz function in some _test.go file and, for
// TestArchitecture/<rule>, a rule of this file.
func ruleDesignInvariants(tr *archTree) []string {
	design := string(tr.src["DESIGN.md"])
	at := regexp.MustCompile(`(?m)^## [0-9. ]*Invariants`).FindStringIndex(design)
	if at == nil {
		return []string{"DESIGN.md has no Invariants section"}
	}
	defined := map[string]bool{}
	for _, p := range tr.pkgs {
		for _, f := range p.tests {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					defined[fd.Name.Name] = true
				}
			}
		}
	}
	for _, r := range archRules {
		defined["TestArchitecture/"+r.name] = true
	}
	names := regexp.MustCompile(`\b(Test|Fuzz)[A-Za-z0-9_]+(/[A-Za-z0-9_]+)?`).FindAllString(design[at[0]:], -1)
	if len(names) == 0 {
		return []string{"DESIGN.md's Invariants section names no test"}
	}
	var out []string
	for _, name := range names {
		if !defined[name] {
			out = append(out, fmt.Sprintf("DESIGN.md's invariants name %s, which does not exist", name))
		}
	}
	return out
}

// archAllow lists the exported internal identifiers that production code
// does not call on purpose, each with its reason. A package entry covers
// the whole package.
var archAllow = map[string]string{
	"internal/faultfs":                "the fault-injection seam: wraps chunk sources and step hooks in tests",
	"internal/testutil":               "helpers shared by several packages' tests",
	"internal/difftest.Run":           "difftest's reproduce entry point: replays one seed",
	"internal/difftest.RunIngestDiff": "difftest's reproduce entry point for the ingest twins",
	"internal/difftest.RunRepr":       "difftest's reproduce entry point for REPRESENT",
	"internal/series.Series.Slice":    "the reference span slicing the m4, groupby and pyramid oracles compare against",
	"internal/m4.Query.Span":          "the reference span definition the m4, storage, groupby, pyramid and integration tests check against",
	"internal/govern.Budget.Used":     "tests read a budget's charges back; the operators only charge",
	"internal/obs.Counter.Value":      "tests read one counter back; production reads the registry through Snapshot",
}

// ruleProductionAPI: every exported package-level identifier or method of
// non-test internal/ code has a non-test reference (bench/ counts: that
// module is frozen and imports internal packages). Methods that satisfy an
// interface are exempt, as are archAllow's entries; an entry that names
// nothing, or API production code now calls, is a violation too.
func ruleProductionAPI(tr *archTree) []string {
	// The interfaces a method may satisfy: the error interface, those that
	// errors.Is/As assert dynamically, and every interface the tree or the
	// standard library packages it imports declare or mention.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			return []string{err.Error()}
		}
		ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
	}
	seen := map[*types.Package]bool{}
	var addScope func(pkg *types.Package)
	addScope = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range pkg.Imports() {
			addScope(imp)
		}
	}
	used := map[string]bool{}
	for _, p := range tr.sorted() {
		for k := range p.refs {
			used[k] = true
		}
		ifaces = append(ifaces, p.ifaces...)
		addScope(p.types)
	}
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	satisfies := func(fn *types.Func, recv types.Type) bool {
		for _, it := range byMethod[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}
	allowed := func(key string) bool {
		for k := range archAllow {
			if key == k || strings.HasPrefix(key, k+".") && tr.pkgs[archModule+"/"+k] != nil {
				return true
			}
		}
		return false
	}
	var out []string
	declared := map[string]bool{}
	for _, p := range tr.pkgsUnder("internal") {
		for id, obj := range p.info.Defs {
			if obj == nil || !obj.Exported() {
				continue
			}
			if rt := recvType(obj); rt != nil {
				if types.IsInterface(rt) || satisfies(obj.(*types.Func), rt) {
					continue
				}
			} else if obj.Parent() != p.types.Scope() {
				continue // fields and locals
			}
			key := strings.TrimPrefix(objKey(obj), archModule+"/")
			declared[key] = true
			if used[objKey(obj)] || allowed(key) {
				continue
			}
			out = append(out, fmt.Sprintf("%s: %s has no non-test caller; delete it, move it into a _test.go file, or allow it with a reason",
				tr.fset.Position(id.Pos()), key))
		}
	}
	for k := range archAllow {
		switch {
		case tr.pkgs[archModule+"/"+k] != nil:
		case !declared[k]:
			out = append(out, fmt.Sprintf("allow-list entry %s names nothing", k))
		case used[archModule+"/"+k]:
			out = append(out, fmt.Sprintf("allow-list entry %s has a non-test caller; drop the entry", k))
		}
	}
	sort.Strings(out)
	return out
}

// knobAllow lists the exported fields of *Options and *Config structs that
// only tests set on purpose, each with its reason.
var knobAllow = map[string]string{
	"internal/lsm.Options.StepHook":           "a fault-injection seam: tests abort write-path steps through it until an in-memory filesystem replaces it",
	"internal/lsm.Options.WrapSource":         "a fault-injection seam: tests corrupt chunk reads through it until an in-memory filesystem replaces it",
	"internal/lsm.Options.SpaceProbeInterval": "tests shorten the disk-space probe to leave read-only mode at once; the default suits every deployment",
}

// ruleKnobsHaveCallers: every exported field of a struct type under
// internal/ whose name ends in Options or Config is set by non-test code
// (bench/ counts) — keyed in a composite literal, assigned, incremented or
// addressed, an assignment to a.b.c setting both b and c. A knob nobody
// sets is a value nobody chose; knobAllow names the exceptions, a package
// entry of archAllow exempts its package, and a stale knobAllow entry is a
// violation too.
func ruleKnobsHaveCallers(tr *archTree) []string {
	// key names a field by its struct's type, so a field reads the same from
	// every package whichever type-check produced it.
	key := func(t types.Type, field string) string {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return strings.TrimPrefix(n.Obj().Pkg().Path(), archModule+"/") + "." + n.Obj().Name() + "." + field
		}
		return ""
	}
	written := map[string]bool{}
	for _, p := range tr.sorted() {
		// set marks every field selected on the way down to a written
		// location: a.b[i].c = v sets c and b.
		set := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						owner := sel.Recv()
						for _, i := range sel.Index()[:len(sel.Index())-1] {
							if ptr, ok := owner.(*types.Pointer); ok {
								owner = ptr.Elem()
							}
							owner = owner.Underlying().(*types.Struct).Field(i).Type()
						}
						written[key(owner, x.Sel.Name)] = true
						e = x.X
						continue
					}
				}
				return
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						set(l)
					}
				case *ast.IncDecStmt:
					set(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						set(x.X)
					}
				case *ast.CompositeLit:
					for _, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[key(p.info.Types[x].Type, id.Name)] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	var out []string
	declared := map[string]bool{}
	for _, p := range tr.pkgsUnder("internal") {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || !strings.HasSuffix(tn.Name(), "Options") && !strings.HasSuffix(tn.Name(), "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				k := key(tn.Type(), f.Name())
				if !f.Exported() || written[k] || archAllow[strings.TrimPrefix(p.path, archModule+"/")] != "" {
					continue
				}
				declared[k] = true
				if knobAllow[k] == "" {
					out = append(out, fmt.Sprintf("%s: %s is set only by tests; delete the knob, or allow it with a reason",
						tr.fset.Position(f.Pos()), k))
				}
			}
		}
	}
	for k := range knobAllow {
		if !declared[k] {
			out = append(out, fmt.Sprintf("knob allow-list entry %s names no field only tests set", k))
		}
	}
	sort.Strings(out)
	return out
}

func TestArchitecture(t *testing.T) {
	tr := loadArchTree(t)
	for _, p := range tr.sorted() {
		for _, err := range p.errs {
			t.Errorf("%s: %v", p.path, err)
		}
	}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr) {
				t.Error(v)
			}
		})
	}
}

// archMutations are edits the rules must catch: the breakages each rule
// was written against, and the ones a string match missed. The last entry
// must pass: the rules' strings in comments are not code.
var archMutations = []struct {
	name  string
	rule  string // "" for an edit no rule may flag
	edits []archEdit
}{
	{"second mergeread load", "one_merge_all_read", []archEdit{{"internal/mergeread/mergeread.go",
		"l, err := load(ctx, snap, opts, c)", "_, _ = load(ctx, snap, opts, c)\n\t\tl, err := load(ctx, snap, opts, c)"}}},
	{"WaitGroup in m4udf", "no_query_goroutines", []archEdit{{"internal/m4udf/m4udf.go", "import (", "import (\n\t\"sync\""},
		{"internal/m4udf/m4udf.go", "", "\nvar pending sync.WaitGroup\n"}}},
	{"go func in groupby", "no_query_goroutines", []archEdit{{"internal/groupby/groupby.go", "", "\nfunc spawn() { go func() {}() }\n"}}},
	{"go func in m4lsm", "no_query_goroutines", []archEdit{{"internal/m4lsm/m4lsm.go", "",
		"\nfunc spawn(done chan<- struct{}) { go func() { close(done) }() }\n"}}},
	{"mutex in a chunk state", "no_query_goroutines", []archEdit{{"internal/m4lsm/load.go", "import (", "import (\n\t\"sync\""},
		{"internal/m4lsm/load.go", "\ttimes    []int64", "\tmu       sync.Mutex\n\ttimes    []int64"}}},
	{"third wave in m4lsm", "one_task_shape", []archEdit{{"internal/m4lsm/m4lsm.go",
		"\terr = runWave(ctx, sc, plans, rest)", "\terr = runWave(ctx, sc, plans, rest)\n\t_ = runWave(ctx, sc, plans, waveFP)"}}},
	{"task run outside runWave", "one_task_shape", []archEdit{{"internal/m4lsm/plan.go", "",
		"\nfunc (p *seriesPlan) fp(sc *spanComputer, k int) (series.Point, bool, error) {\n\treturn p.op.computeG(sc, p.listRange(p.work[k]), p.chunks(p.work[k]), gFP)\n}\n"}}},
	{"second FP substitution in m4lsm", "one_task_shape", []archEdit{{"internal/m4lsm/plan.go", "", "\nvar fallback = \"span 0: substituted FP\"\n"}}},
	{"internal import in an example", "public_examples", []archEdit{{"examples/quickstart/main.go", "import (", "import (\n\t_ \"m4lsm/internal/series\""}}},
	{"second tsfile.Create in lsm", "one_chunk_writer", []archEdit{{"internal/lsm/flush.go", "",
		"\nfunc create(p string) (*tsfile.Writer, error) { return tsfile.Create(p) }\n"}}},
	{"Snapshot through a renamed variable", "one_read_path", []archEdit{{"internal/server/server.go", "",
		"\nfunc peek(eng *lsm.Engine, stmt m4ql.Statement) {\n\t_, _ = eng.Snapshot(\"root.s\", stmt.Query.Range())\n}\n"}}},
	{"second executor call in server", "one_read_path", []archEdit{{"internal/server/server.go", "",
		"\nfunc again(ctx context.Context, h *Handler) { _, _ = m4ql.Exec(ctx, h.engine, m4ql.Statement{}) }\n"}}},
	{"stepreg.Fit in m4lsm/load.go", "fit_at_write", []archEdit{{"internal/m4lsm/load.go", "", "\nfunc refit(ts []int64) *stepreg.Model { return stepreg.Fit(ts) }\n"}}},
	{"memtable append through an alias outside ingest.go", "one_write_path", []archEdit{{"internal/lsm/engine.go", "",
		"\nfunc (e *Engine) put(id string, m memtable) {\n\tbuf := e.mem\n\tbuf[id] = m\n}\n"}}},
	{"SortDedup back in Snapshot", "sorted_on_write", []archEdit{{"internal/lsm/read.go",
		"if m := e.mem[seriesID];", "if m := (memtable{cols: series.SortDedup(e.mem[seriesID].cols.Points()).Columns()});"}}},
	{"walMu in lsm", "one_write_path", []archEdit{{"internal/lsm/engine.go", "", "\nvar walMu sync.Mutex\n"}}},
	{"record log opened in lsm", "one_write_path", []archEdit{{"internal/lsm/recovery.go", "",
		"\nfunc openLog(p string) (*tsfile.RecordLog, [][]byte, error) { return tsfile.OpenRecordLog(p, false) }\n"}}},
	{"WAL file name outside wal", "one_write_path", []archEdit{{"internal/lsm/recovery.go", "", "\nconst walName = \"wal.log\"\n"}}},
	{"rotate in Commit", "one_wal_file", []archEdit{{"internal/wal/commit.go", "package wal", "package wal\n\nimport \"m4lsm/internal/tsfile\""},
		{"internal/wal/commit.go", "\tif err := l.log.Append(payloads, l.opts.Sync); err != nil {", "\tif l.log.Size() > 1<<20 {\n\t\tnext, _, err := tsfile.OpenRecordLog(l.path+\".2\", false)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n\t\tl.log = next\n\t}\n\tif err := l.log.Append(payloads, l.opts.Sync); err != nil {"}}},
	{"internal/lsm import in pyramid", "one_chunk_writer", []archEdit{{"internal/pyramid/pyramid.go", "import (", "import (\n\t_ \"m4lsm/internal/lsm\""}}},
	{"FromColumns in mergeread", "columnar_read_path", []archEdit{{"internal/mergeread/mergeread.go", "",
		"\nfunc rows(ts []int64, vs []float64) series.Series { return series.FromColumns(ts, vs) }\n"}}},
	{"root Benchmark", "one_measurement_stack", []archEdit{{"m4lsm_test.go", "", "\nfunc BenchmarkOpen(b *testing.B) {}\n"}}},
	{"exper imports the server", "one_measurement_stack", []archEdit{{"internal/exper/exper.go", "import (", "import (\n\t_ \"m4lsm/internal/server\""}}},
	{"Recycle inside a load task", "recycle_at_query_end", []archEdit{{"internal/mergeread/mergeread.go",
		"c.Task(i, \"load\", t)", "c.Task(i, \"load\", t)\n\t\t\tref.Recycle(l.chunks[i].cols.Times(), nil)"}}},
	{"Recycle on the in-memory chunk", "recycle_at_query_end", []archEdit{{"internal/storage/memchunk.go", "",
		"\n// Recycle implements Recycler.\nfunc (c *memChunk) Recycle([]int64, []float64) {}\n"}}},
	{"release the plan inside runWave", "recycle_at_query_end", []archEdit{{"internal/m4lsm/m4lsm.go",
		"r := &p.results[k][g]", "defer p.release()\n\t\t\t\tr := &p.results[k][g]"}}},
	{"second mutex in Engine", "one_engine_lock", []archEdit{{"internal/lsm/engine.go",
		"\tscrubCur scrubCursor", "\tfileMu   sync.Mutex\n\tscrubCur scrubCursor"}}},
	{"mutex inside an lsm struct in Engine", "one_engine_lock", []archEdit{{"internal/lsm/engine.go",
		"\tscrubCur scrubCursor", "\tfileSt   fileState\n\tscrubCur scrubCursor"},
		{"internal/lsm/engine.go", "", "\ntype fileState struct {\n\tn  int\n\tmu *sync.Mutex\n}\n"}}},
	{"mutex inside a tsfile struct in ModLog", "one_engine_lock", []archEdit{{"internal/tsfile/mods.go", "import (", "import (\n\t\"sync\""},
		{"internal/tsfile/mods.go", "\tlog  *RecordLog", "\tlocks []modLock\n\tlog  *RecordLog"},
		{"internal/tsfile/mods.go", "", "\ntype modLock struct{ mu sync.RWMutex }\n"}}},
	{"RWMutex in ModLog", "one_engine_lock", []archEdit{{"internal/tsfile/mods.go", "import (", "import (\n\t\"sync\""},
		{"internal/tsfile/mods.go", "\tlog  *RecordLog", "\tmu   sync.RWMutex\n\tlog  *RecordLog"}}},
	{"second gate in server", "one_admission_gate", []archEdit{{"internal/server/server.go", "",
		"\nvar writeGate = govern.NewGate(1, 0, time.Second)\n"}}},
	{"Result back in /query", "one_query_encoder", []archEdit{{"internal/server/server.go",
		"writeAnswer(w, ev, out)", "writeJSON(w, http.StatusOK, out.Result())"}}},
	{"go func in lsm", "no_engine_goroutines", []archEdit{{"internal/lsm/engine.go", "", "\nfunc spawn() { go func() {}() }\n"}}},
	{"time.Sleep in lsm", "no_library_sleeps", []archEdit{{"internal/lsm/engine.go", "import (", "import (\n\tclock \"time\""},
		{"internal/lsm/engine.go", "", "\nfunc nap() { clock.Sleep(clock.Millisecond) }\n"}}},
	{"DESIGN names a missing test", "design_invariants", []archEdit{{"DESIGN.md", "`TestSpecMatchesBenchmarkJSON`", "`TestSpecMatchesBenchmarkJSON`, `TestNoSuchInvariant`"}}},
	{"exported API only tests call", "production_api", []archEdit{{"internal/series/series.go", "",
		"\n// Mid is the range's midpoint.\nfunc (r TimeRange) Mid() int64 { return r.Start + (r.End-r.Start)/2 }\n"}}},
	{"knob only tests set", "knobs_have_callers", []archEdit{{"internal/lsm/engine.go",
		"\tDisablePyramid bool\n", "\tDisablePyramid bool\n\t// ReadAhead is a knob no production code sets.\n\tReadAhead int\n"}}},
	{"rule strings in comments", "", []archEdit{{"internal/m4lsm/plan.go", "", "\n// substituted FP; go func() {}(); var mu sync.Mutex; op.computeG(sc, r, chunks, g)\n"},
		{"internal/server/server.go", "", "\n// e.Snapshot( engine.Snapshot( m4ql.Exec( govern.NewGate(\n"}}},
}

func TestArchitectureMutations(t *testing.T) {
	tr := loadArchTree(t)
	for _, m := range archMutations {
		t.Run(strings.ReplaceAll(m.name, " ", "_"), func(t *testing.T) {
			mt, err := tr.mutate(m.edits...)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range m.edits {
				if p := mt.pkgs[archImportPath(path.Dir(e.file))]; strings.HasSuffix(e.file, ".go") && len(p.errs) > 0 {
					t.Fatalf("the mutated %s does not compile: %v", p.path, p.errs)
				}
			}
			for _, r := range archRules {
				got := r.check(mt)
				switch {
				case r.name == m.rule && len(got) == 0:
					t.Errorf("%s passes the mutation", r.name)
				case r.name != m.rule && len(got) > 0:
					t.Errorf("%s fails too: %v", r.name, got)
				}
			}
		})
	}
}
