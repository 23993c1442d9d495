package cos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestLibraryPackagesStayTransportFree freezes the layering rule introduced
// in PR 1 and extended by the serve subsystem: HTTP (and the other
// network-facing stdlib surfaces) may appear only at the edges —
// cmd/ binaries, internal/obs/obshttp, internal/cli, and the serve
// transport/client packages. The simulation core must stay importable from
// any context without dragging a server stack in.
//
// The test parses every non-test source file in the module, builds the
// module-internal import graph, computes the transitive closure of the
// protected packages, and fails if anything in that closure imports a
// forbidden package.
func TestLibraryPackagesStayTransportFree(t *testing.T) {
	const module = "cos"
	protected := []string{
		module,
		module + "/internal/phy",
		module + "/internal/coding",
		module + "/internal/cos",
		module + "/internal/channel",
		module + "/internal/serve",       // transport-free core; servehttp is the edge
		module + "/internal/serve/cache", // content-addressed result cache stays pure
		module + "/internal/serve/store", // durable WAL store: files only, no transport
		module + "/internal/obs/event",   // journal is transport-free; /events streams it
		module + "/internal/scenario",    // scenario registry: pure composition, no transport
		module + "/internal/scenario/all",
		module + "/internal/scenario/indoor",
		module + "/internal/scenario/outdoor",
		module + "/internal/scenario/padding",
		module + "/internal/scenario/silence",
	}
	forbidden := func(imp string) bool {
		return imp == "net/http" ||
			strings.HasPrefix(imp, "net/http/") ||
			imp == "expvar" ||
			imp == "net/rpc"
	}

	imports := moduleImports(t, module)
	for _, root := range protected {
		if _, ok := imports[root]; !ok {
			t.Fatalf("protected package %s not found in module (renamed?)", root)
		}
	}

	// Transitive closure of the protected set over module-internal edges.
	closure := map[string]bool{}
	stack := append([]string(nil), protected...)
	for len(stack) > 0 {
		pkg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if closure[pkg] {
			continue
		}
		closure[pkg] = true
		for imp := range imports[pkg] {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				stack = append(stack, imp)
			}
		}
	}

	for pkg := range closure {
		for imp := range imports[pkg] {
			if forbidden(imp) {
				t.Errorf("%s imports %s: transport packages must stay out of the simulation core (keep HTTP in cmd/, internal/cli, internal/obs/obshttp, internal/serve/http, internal/serve/client)", pkg, imp)
			}
		}
	}
}

// TestServeClientConsumers pins which packages may depend on the HTTP
// client: operator-facing binaries and the fleet coordinator (which exists
// to drive remote servers). Library packages reaching for the client would
// re-couple the core to its own transport through the back door, and new
// consumers should add themselves here deliberately.
func TestServeClientConsumers(t *testing.T) {
	const module = "cos"
	allowed := map[string]bool{
		module + "/cmd/cos-top":    true,
		module + "/internal/fleet": true,
	}
	imports := moduleImports(t, module)
	for pkg, set := range imports {
		if set[module+"/internal/serve/client"] && !allowed[pkg] {
			t.Errorf("%s imports %s/internal/serve/client; only %v may (extend the list deliberately if this is a new operator binary or coordinator layer)",
				pkg, module, []string{module + "/cmd/cos-top", module + "/internal/fleet"})
		}
	}
}

// TestFleetConsumers keeps the coordinator at the edge too: only cmd/
// binaries may import internal/fleet. The experiments layer must never
// grow a fleet dependency — it sees remote execution only through the
// RunOptions.Exec interface, which is what keeps local and fleet runs
// byte-identical by construction.
func TestFleetConsumers(t *testing.T) {
	const module = "cos"
	imports := moduleImports(t, module)
	for pkg, set := range imports {
		if set[module+"/internal/fleet"] && !strings.HasPrefix(pkg, module+"/cmd/") {
			t.Errorf("%s imports %s/internal/fleet; only cmd/ binaries may (library code integrates via experiments.RunOptions.Exec)",
				pkg, module)
		}
	}
}

// moduleImports parses every non-test .go file under the module root and
// returns importPath -> set of imported paths.
func moduleImports(t *testing.T, module string) map[string]map[string]bool {
	t.Helper()
	imports := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = module + "/" + dir
		}
		set := imports[pkg]
		if set == nil {
			set = map[string]bool{}
			imports[pkg] = set
		}
		for _, imp := range f.Imports {
			set[strings.Trim(imp.Path.Value, `"`)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

// TestNoForkedIntoTwins keeps one body per PHY primitive. Where a function
// or method X has a scratch-reuse sibling XInto (same receiver), XInto is
// the implementation and X must be a thin wrapper over it: a loop in X's
// body means the algorithm has been written twice, and the unit tests of
// X would no longer exercise the code the hot path runs.
func TestNoForkedIntoTwins(t *testing.T) {
	dirs := []string{
		"internal/bits",
		"internal/coding",
		"internal/modulation",
		"internal/ofdm",
		"internal/channel",
		"internal/cos",
		"internal/phy",
	}
	var offenders []string
	for _, dir := range dirs {
		offenders = append(offenders, forkedIntoTwins(t, dir)...)
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s loops although it has an Into sibling; make it a wrapper over the Into form", o)
	}
}

// TestFiguresUseEmbeddingSeam keeps one CoS trial path: the experiments
// embed, detect and extract control messages only through the scenario
// Embedding the link itself runs, never by calling the silence interval-
// coding or detection primitives directly. Inserting silences at explicit
// positions (InsertSilences*) stays allowed: fig10a and the placement
// ablation lay silences out by hand as a layout experiment.
func TestFiguresUseEmbeddingSeam(t *testing.T) {
	const dir = "internal/experiments"
	forbidden := []string{"EncodeIntervals", "Layout", "ExtractIntervals", "DecodeIntervals"}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		icos := ""
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "cos/internal/cos" {
				icos = "cos"
				if imp.Name != nil {
					icos = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			bad := strings.HasPrefix(sel.Sel.Name, "DetectMask")
			if x, ok := sel.X.(*ast.Ident); ok && icos != "" && x.Name == icos {
				for _, p := range forbidden {
					bad = bad || strings.HasPrefix(sel.Sel.Name, p)
				}
			}
			if bad {
				t.Errorf("%s: %s bypasses the scenario Embedding seam; embed, detect and extract through silence.Embedding",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// forkedIntoTwins returns "dir.Recv.X" for every X in the package at dir
// that has an XInto sibling on the same receiver and whose body contains a
// for or range statement.
func forkedIntoTwins(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ recv, name string }
	funcs := map[key]*ast.FuncDecl{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs[key{receiverName(fd), fd.Name.Name}] = fd
			}
		}
	}
	var out []string
	for k, fd := range funcs {
		if _, ok := funcs[key{k.recv, k.name + "Into"}]; !ok {
			continue
		}
		loops := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = true
			}
			return !loops
		})
		if loops {
			out = append(out, strings.TrimPrefix(dir, "internal/")+"."+strings.TrimPrefix(k.recv+"."+k.name, "."))
		}
	}
	return out
}

// receiverName returns the receiver's type name without the pointer ("" for
// functions).
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	expr := fd.Recv.List[0].Type
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestOneBenchHarness keeps one bench harness: every in-repo gate records
// its rows and gates through internal/benchkit, which owns the one
// -benchkit.dir flag and the BENCH_<name>.json file names. A test file
// elsewhere that declares its own bench-* flag or names a BENCH_ file has
// grown a second harness.
func TestOneBenchHarness(t *testing.T) {
	benchFile := regexp.MustCompile(`BENCH_[A-Za-z0-9_]*\.json`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == filepath.Join("internal", "benchkit") ||
				path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		flagPkg := ""
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "flag" {
				flagPkg = "flag"
				if imp.Name != nil {
					flagPkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || flagPkg == "" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != flagPkg {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(strings.Trim(lit.Value, "`\""), "bench") {
						t.Errorf("%s: declares flag %s; gates take -benchkit.dir from internal/benchkit", fset.Position(lit.Pos()), lit.Value)
					}
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && benchFile.MatchString(n.Value) {
					t.Errorf("%s: names %s; gates write their reports through benchkit.Report.Finish", fset.Position(n.Pos()), n.Value)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
