// Command reprolint enforces this repository's house rules on Go
// source, using only the standard library's go/ast, go/parser, and
// go/types:
//
//   - no panic in non-test code under internal/ — library code returns
//     errors;
//   - no fmt.Print/Printf/Println outside cmd/ and examples/ — library
//     code does not write to stdout;
//   - fmt.Errorf calls that pass an error argument must wrap it with
//     %w, not stringify it with %v/%s/%q — otherwise errors.Is/As
//     cannot see through the wrap;
//   - no direct progress logging in internal/ packages outside
//     internal/obs: fmt.Fprint* to os.Stdout/os.Stderr, any use of the
//     std log package, and log/slog's package-level functions that log
//     through or replace the process default logger (slog.Info,
//     slog.Default, slog.SetDefault, …) are banned. Progress goes
//     through the *slog.Logger the caller hands in, so every line
//     carries structure and only cmd/ decides where it lands. (Writing
//     tables to a caller-provided io.Writer is fine — the rule only
//     fires on the process-global streams.)
//   - internal/core must not call ChainSource.Transaction or
//     ChainSource.Receipt directly: records are read through the
//     source's core.Layer (core.LayerOf), which honors context
//     cancellation and reads a quarantined record as a nil entry. The
//     leaf adapter (stack.go) is the single allowed call site.
//   - packages whose exports must be deterministic (internal/core,
//     internal/cluster, internal/measure, internal/report,
//     internal/evmstatic) must not call time.Now/time.Since or anything
//     from math/rand: a wall-clock or PRNG read there can leak
//     nondeterminism into exported datasets and reports. Latency
//     instrumentation routes through obs.Now/obs.Since instead, which
//     keeps the clock visibly observability-only.
//   - only internal/core/stack.go may type-assert or type-switch on
//     the optional ChainSource extensions (core.ContextSource,
//     BatchSource, CodeSource, StorageSource): everything else,
//     internal/core included, reads through a core.Layer stack, whose
//     leaf adapter (core.NewLeaf, in stack.go) is the one place that
//     probes a source's capabilities.
//
// Usage: go run ./cmd/reprolint ./...
//
// Exit status is 1 when any violation is found.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d violation(s)\n", len(findings))
		os.Exit(1)
	}
}

// listedPackage is the subset of `go list -json` output the linter
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct {
		Path string
		Dir  string
	}
}

// run lints the packages matched by patterns and returns the findings
// in deterministic order.
func run(patterns []string) ([]string, error) { return lint(patterns, nil) }

// lint is run with the package at import path p linted as if it were
// the module-relative path as[p], which lets a test fixture stand in
// for a package whose rules depend on where it lives.
func lint(patterns []string, as map[string]string) ([]string, error) {
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, for type-checking imports.
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var findings []string
	for _, p := range pkgs {
		if p.Standard || p.Module == nil {
			continue
		}
		fs, err := lintPackage(p, as[p.ImportPath], imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

// goList runs `go list -deps -export -json` over the patterns. -deps
// pulls in every transitive dependency so the importer can resolve any
// import; -export makes the build cache produce export data.
func goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w: %s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// lintPackage parses, type-checks, and lints one module package, as
// the module-relative path rel when that is set.
func lintPackage(p *listedPackage, rel string, imp types.Importer) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking: %w", err)
	}

	if rel == "" {
		rel = strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/")
	}
	l := &linter{
		fset:        fset,
		info:        info,
		banPanic:    strings.HasPrefix(rel, "internal/"),
		banPrinting: !strings.HasPrefix(rel, "cmd/") && !strings.HasPrefix(rel, "examples/"),
		banProgress: strings.HasPrefix(rel, "internal/") && rel != "internal/obs",
		inCore:      rel == "internal/core",
		banClock:    deterministicPackages[rel],
	}
	for i, f := range files {
		l.inStack = l.inCore && p.GoFiles[i] == "stack.go"
		ast.Inspect(f, l.inspect)
	}
	return l.findings, nil
}

// deterministicPackages lists the packages whose exported artifacts
// (datasets, clusters, tables, static analyses, load-generator
// schedules) must be reproducible byte-for-byte; rule 6 bans
// wall-clock and PRNG reads there. internal/loadgen qualifies because
// its op schedule is part of the determinism contract: timing flows
// through obs.Now/obs.Since and randomness through its own seeded
// generator, never the process clock or PRNG.
var deterministicPackages = map[string]bool{
	"internal/core":      true,
	"internal/cluster":   true,
	"internal/measure":   true,
	"internal/report":    true,
	"internal/evmstatic": true,
	"internal/loadgen":   true,
	"internal/screen":    true,
}

// linter walks one package's ASTs applying the rules.
type linter struct {
	fset        *token.FileSet
	info        *types.Info
	banPanic    bool
	banPrinting bool
	banProgress bool
	inCore      bool // internal/core: rule 5 applies
	inStack     bool // the file is internal/core/stack.go, exempt from rules 5 and 7
	banClock    bool
	findings    []string
}

func (l *linter) reportf(pos token.Pos, format string, args ...any) {
	l.findings = append(l.findings, fmt.Sprintf("%s: %s", l.fset.Position(pos), fmt.Sprintf(format, args...)))
}

func (l *linter) inspect(n ast.Node) bool {
	// Rule 7: capability probes on a ChainSource belong to the leaf
	// adapter in internal/core/stack.go. A type switch's clauses name
	// the asserted types; its x.(type) guard carries none.
	if !l.inStack {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				l.checkProbe(n.Type)
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range n.Body.List {
				for _, typ := range clause.(*ast.CaseClause).List {
					l.checkProbe(typ)
				}
			}
		}
	}

	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}

	// Rule 1: no panic in internal/ packages.
	if l.banPanic {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if _, builtin := l.info.Uses[id].(*types.Builtin); builtin {
				l.reportf(call.Pos(), "panic in internal package: return an error instead")
			}
		}
	}

	// Rule 5: in internal/core, records are read through the source's
	// Layer; a direct interface call bypasses context cancellation and
	// quarantine handling. The leaf adapter in stack.go is the one
	// allowed call site.
	if l.inCore && !l.inStack {
		l.checkDirectFetch(call)
	}

	fn, pkg := l.calledFunc(call)

	// Rule 6: no wall-clock or PRNG reads in deterministic-export
	// packages. time.Now and time.Since leak the wall clock; anything
	// from math/rand leaks the process PRNG. Instrumentation goes
	// through obs.Now/obs.Since.
	if l.banClock {
		if pkg == "time" && (fn == "Now" || fn == "Since") {
			l.reportf(call.Pos(), "time.%s in deterministic-export package: route instrumentation through obs.%s", fn, fn)
		}
		if pkg == "math/rand" || pkg == "math/rand/v2" {
			l.reportf(call.Pos(), "%s.%s in deterministic-export package: derive randomness from seeded inputs, not the process PRNG", pkg, fn)
		}
	}

	// Rule 4: no progress logging in internal/ outside internal/obs —
	// fmt.Fprint* aimed at the process-global streams, the std log
	// package (which writes to stderr) and slog's default logger must
	// give way to the *slog.Logger the caller hands in.
	if l.banProgress {
		if pkg == "log" {
			l.reportf(call.Pos(), "log.%s in internal package: route progress logging through the caller's *slog.Logger", fn)
		}
		if pkg == "log/slog" && slogDefaultFuncs[fn] && !l.isMethod(call) {
			l.reportf(call.Pos(), "slog.%s in internal package: log through the caller's *slog.Logger, not the process default", fn)
		}
		if pkg == "fmt" && len(call.Args) > 0 {
			switch fn {
			case "Fprint", "Fprintf", "Fprintln":
				if stream := l.stdStream(call.Args[0]); stream != "" {
					l.reportf(call.Pos(), "fmt.%s to os.%s in internal package: route progress logging through the caller's *slog.Logger", fn, stream)
				}
			}
		}
	}

	if pkg != "fmt" {
		return true
	}

	// Rule 2: no fmt printing to stdout outside cmd/ and examples/.
	if l.banPrinting {
		switch fn {
		case "Print", "Printf", "Println":
			l.reportf(call.Pos(), "fmt.%s outside cmd/ or examples/: library code must not write to stdout", fn)
		}
	}

	// Rule 3: fmt.Errorf must wrap error arguments with %w.
	if fn == "Errorf" {
		l.checkErrorf(call)
	}
	return true
}

// checkDirectFetch flags method calls whose static receiver is the
// core.ChainSource interface and whose name is Transaction or Receipt.
func (l *linter) checkDirectFetch(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := l.info.Uses[sel.Sel].(*types.Func)
	if !ok || (fn.Name() != "Transaction" && fn.Name() != "Receipt") {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	named, ok := sig.Recv().Type().(*types.Named)
	if !ok || named.Obj().Name() != "ChainSource" ||
		named.Obj().Pkg() == nil || !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/core") {
		return
	}
	l.reportf(call.Pos(), "direct ChainSource.%s call in internal/core: read through core.LayerOf so context and quarantine semantics apply", fn.Name())
}

// capabilities are the optional ChainSource extensions rule 7 guards.
var capabilities = map[string]bool{
	"ContextSource": true,
	"BatchSource":   true,
	"CodeSource":    true,
	"StorageSource": true,
}

// checkProbe flags an asserted type that is one of internal/core's
// optional ChainSource extensions.
func (l *linter) checkProbe(typ ast.Expr) {
	named, ok := l.info.Types[typ].Type.(*types.Named)
	if !ok || !capabilities[named.Obj().Name()] ||
		named.Obj().Pkg() == nil || !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/core") {
		return
	}
	l.reportf(typ.Pos(), "type assertion on core.%s outside internal/core/stack.go: read through core.LayerOf, whose leaf adapter probes source capabilities", named.Obj().Name())
}

// stdStream reports whether the expression is os.Stdout or os.Stderr,
// returning the variable name ("" otherwise).
func (l *linter) stdStream(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := l.info.Uses[sel.Sel].(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return ""
	}
	if name := obj.Name(); name == "Stdout" || name == "Stderr" {
		return name
	}
	return ""
}

// slogDefaultFuncs are log/slog's package-level functions that log
// through, or replace, the process default logger (rule 4).
var slogDefaultFuncs = map[string]bool{
	"Debug": true, "DebugContext": true, "Info": true, "InfoContext": true,
	"Warn": true, "WarnContext": true, "Error": true, "ErrorContext": true,
	"Log": true, "LogAttrs": true, "Default": true, "SetDefault": true,
}

// isMethod reports whether call invokes a method, such as
// (*slog.Logger).Info, rather than a package-level function.
func (l *linter) isMethod(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := l.info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// calledFunc resolves a call to (function name, defining package name)
// when the callee is a package-level selector like fmt.Errorf.
func (l *linter) calledFunc(call *ast.CallExpr) (name, pkg string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := l.info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Name(), fn.Pkg().Path()
}

// checkErrorf flags error-typed arguments formatted with a stringifying
// verb instead of %w.
func (l *linter) checkErrorf(call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := parseVerbs(format)
	args := call.Args[1:]
	for i, verb := range verbs {
		if i >= len(args) {
			break
		}
		switch verb {
		case 'v', 's', 'q':
			if l.isError(args[i]) {
				l.reportf(args[i].Pos(), "fmt.Errorf stringifies an error with %%%c: use %%w so errors.Is/As can unwrap it", verb)
			}
		}
	}
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isError reports whether the expression's type implements error.
func (l *linter) isError(e ast.Expr) bool {
	tv, ok := l.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorType) ||
		types.Implements(types.NewPointer(tv.Type), errorType)
}

// parseVerbs extracts the verb letter consuming each successive
// argument of a format string. A '*' width or precision consumes an
// argument of its own and is recorded as '*'.
func parseVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		// Flags, width, precision — '*' consumes an argument slot.
		for i < len(format) {
			c := format[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.ContainsRune("+-# 0123456789.", rune(c)) {
				i++
				continue
			}
			break
		}
		// Explicit argument indexes like %[1]d are rare enough here to
		// skip: bail on the whole format string to avoid misattribution.
		if i < len(format) && format[i] == '[' {
			return nil
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}
