package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// defaultCoordPackages scopes the coordinator-focused analyzers
// (framecase, ctxspawn, lockheld) to the distribution layer, the only
// place in the tree that speaks a wire protocol and juggles
// goroutines per connection.
const defaultCoordPackages = "internal/coord"

// FrameCase requires switches over protocol frame kinds to be
// exhaustive. The frame kinds form a closed set (a package-level
// const block of string constants); a dispatch switch that handles a
// subset and falls through silently drops the rest — the coordinator
// bug class where an unhandled message kind disappears instead of
// failing the handshake. A switch is accepted when it covers every
// member of the const group or carries a non-empty default; an empty
// default is the silent drop spelled out and is reported too.
var FrameCase = &analysis.Analyzer{
	Name: frameCaseName,
	Doc: "require exhaustive switches over protocol frame kinds\n\n" +
		"In " + defaultCoordPackages + ", a switch whose cases reference members of a\n" +
		"package-level string-constant group (the frame/message kinds) must either\n" +
		"cover every member or carry a non-empty default that handles the unknown\n" +
		"kind explicitly. An empty default silently drops frames and is reported.\n" +
		"Suppress an intentional partial dispatch with //ppalint:allow framecase <reason>.",
	Run: runFrameCase,
}

// constGroup is one package-level parenthesized const block of ≥2
// string constants — a closed frame/message kind enumeration.
type constGroup struct {
	label   string // common name prefix of the members, for diagnostics
	members []*types.Const
}

func runFrameCase(pass *analysis.Pass) (interface{}, error) {
	if !pathMatches(pass.Pkg.Path(), defaultCoordPackages) {
		return nil, nil
	}
	dirs := scanDirectives(pass, frameCaseName)

	byConst := make(map[types.Object]*constGroup)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || !gd.Lparen.IsValid() {
				continue
			}
			g := &constGroup{}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					if basic, ok := c.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						g.members = append(g.members, c)
					}
				}
			}
			if len(g.members) < 2 {
				continue
			}
			g.label = groupLabel(g.members)
			for _, m := range g.members {
				byConst[m] = g
			}
		}
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if ok && sw.Tag != nil {
				checkFrameSwitch(pass, dirs, byConst, sw)
			}
			return true
		})
	}
	dirs.reportUnused(pass)
	return nil, nil
}

// checkFrameSwitch verifies one tag switch whose cases reference a
// frame-kind const group.
func checkFrameSwitch(pass *analysis.Pass, dirs *directives, byConst map[types.Object]*constGroup, sw *ast.SwitchStmt) {
	seen := make(map[types.Object]bool)
	var group *constGroup
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			obj := caseConst(pass, e)
			if obj == nil {
				continue
			}
			if g := byConst[obj]; g != nil {
				group = g
				seen[obj] = true
			}
		}
	}
	if group == nil {
		return // not a switch over a frame-kind group
	}
	if defaultClause != nil {
		if len(defaultClause.Body) == 0 && !dirs.allowed(frameCaseName, sw.Pos()) {
			pass.Reportf(defaultClause.Pos(),
				"empty default in a switch over %s* kinds silently drops unhandled frames; reject the unknown kind explicitly (or //ppalint:allow framecase <reason>)",
				group.label)
		}
		return
	}
	var missing []string
	for _, m := range group.members {
		if !seen[m] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) > 0 && !dirs.allowed(frameCaseName, sw.Pos()) {
		pass.Reportf(sw.Pos(),
			"switch over %s* kinds is not exhaustive: missing %s; add the cases or a default that rejects the unknown kind (or //ppalint:allow framecase <reason>)",
			group.label, strings.Join(missing, ", "))
	}
}

// caseConst resolves a case expression to the constant it references,
// or nil for literals and non-constant expressions.
func caseConst(pass *analysis.Pass, e ast.Expr) types.Object {
	switch v := e.(type) {
	case *ast.Ident:
		if c, ok := pass.TypesInfo.Uses[v].(*types.Const); ok {
			return c
		}
	case *ast.SelectorExpr:
		if c, ok := pass.TypesInfo.Uses[v.Sel].(*types.Const); ok {
			return c
		}
	}
	return nil
}

// groupLabel derives a short name for a const group from the longest
// common prefix of its member names (msgHello, msgJob, ... -> "msg").
func groupLabel(members []*types.Const) string {
	prefix := members[0].Name()
	for _, m := range members[1:] {
		name := m.Name()
		for !strings.HasPrefix(name, prefix) {
			prefix = prefix[:len(prefix)-1]
		}
	}
	if prefix == "" {
		return members[0].Name()
	}
	return prefix
}
