// Command ppalint runs the repository's determinism & safety
// analyzer suite (internal/lint) over Go packages.
//
// It is a go/analysis unitchecker binary, so the canonical invocation
// is through the go command, which handles loading, caching and
// dependency order — the order the detclose analyzer relies on to
// propagate Deterministic/Tainted facts bottom-up across packages:
//
//	go vet -vettool=$(which ppalint) ./...
//
// Run standalone it drives the same invocation itself:
//
//	ppalint ./...              # vet the given packages (default ./...)
//	ppalint -json ./...        # diagnostics as JSON (go vet -json passthrough)
//	ppalint -github ./...      # findings as GitHub Actions annotations
//	ppalint -list              # list the analyzers and what they enforce
//
// go vet forwards the analyzers' own flags to the tool, so the detclose
// determinism roots are overridden through it:
//
//	go vet -vettool=$(which ppalint) -detclose.roots=internal/campaign.Run ./...
//
// Findings are suppressed in place with //ppalint:allow <analyzer>
// <reason>; see the internal/lint package documentation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/lint"
)

func main() {
	// Under `go vet -vettool=ppalint` the go command probes the tool
	// with -V=full and -flags (JSON flag definitions), then invokes it
	// once per package with a single *.cfg argument. Everything else
	// is a human at a shell.
	for _, a := range os.Args[1:] {
		if strings.HasPrefix(a, "-V=") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			unitchecker.Main(lint.Analyzers()...) // never returns
		}
	}

	var (
		list    = flag.Bool("list", false, "list the registered analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON (go vet -json passthrough)")
		github  = flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations and exit 1 if any")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ppalint [-list] [-json] [-github] [packages]\n\n"+
			"Runs the ppalint determinism & safety analyzers over the given\n"+
			"package patterns (default ./...) by driving go vet -vettool with\n"+
			"itself as the tool. Equivalent to:\n\n"+
			"\tgo vet -vettool=$(which ppalint) [packages]\n\n"+
			"Analyzer flags such as -detclose.roots=pkg/path.Func,... go through\n"+
			"that go vet form.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Printf("%-13s %s\n", a.Name, doc)
		}
		return
	}

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppalint: locating own binary: %v\n", err)
		os.Exit(2)
	}
	args := []string{"vet", "-vettool=" + self}
	if *jsonOut || *github {
		args = append(args, "-json")
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args = append(args, patterns...)

	cmd := exec.Command("go", args...)
	if *github {
		out, runErr := cmd.CombinedOutput()
		n := emitGitHubAnnotations(string(out))
		if n > 0 {
			fmt.Fprintf(os.Stderr, "ppalint: %d finding(s)\n", n)
			os.Exit(1)
		}
		if runErr != nil {
			// vet failed without parseable findings (build error, bad
			// flags): surface its raw output.
			os.Stderr.Write(out)
			if ee, ok := runErr.(*exec.ExitError); ok {
				os.Exit(ee.ExitCode())
			}
			os.Exit(2)
		}
		return
	}
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "ppalint: running go vet: %v\n", err)
		os.Exit(2)
	}
}

// vetDiag is one diagnostic in go vet -json output, which has the
// shape {"<pkg>": {"<analyzer>": [{"posn": "file:line:col", "message": ...}]}}
// per package, the JSON objects separated by # comment lines.
type vetDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// annotation is one finding rendered for GitHub Actions.
type annotation struct {
	file     string
	line     int
	col      int
	analyzer string
	message  string
}

// emitGitHubAnnotations parses go vet -json output and prints one
// ::error workflow command per finding, in deterministic order.
// Returns the number of findings.
func emitGitHubAnnotations(out string) int {
	cwd, _ := os.Getwd()
	var anns []annotation
	for _, obj := range jsonObjects(out) {
		var perPkg map[string]map[string][]vetDiag
		if json.Unmarshal([]byte(obj), &perPkg) != nil {
			continue
		}
		for _, pkg := range sortedKeys(perPkg) {
			for _, analyzer := range sortedKeys(perPkg[pkg]) {
				for _, d := range perPkg[pkg][analyzer] {
					file, line, col := splitPosn(d.Posn)
					if cwd != "" {
						file = strings.TrimPrefix(file, cwd+string(os.PathSeparator))
					}
					anns = append(anns, annotation{file: file, line: line, col: col, analyzer: analyzer, message: d.Message})
				}
			}
		}
	}
	sort.Slice(anns, func(i, j int) bool {
		a, b := anns[i], anns[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})
	for _, a := range anns {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=ppalint(%s)::%s\n",
			a.file, a.line, a.col, a.analyzer, escapeAnnotation(a.message))
	}
	return len(anns)
}

// jsonObjects extracts the top-level JSON objects from vet output:
// each starts with "{" at column zero and ends with "}" at column
// zero; "#" comment lines separate packages.
func jsonObjects(out string) []string {
	var objs []string
	var cur strings.Builder
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case !in && strings.HasPrefix(line, "{"):
			in = true
			cur.WriteString(line)
			cur.WriteByte('\n')
		case in:
			cur.WriteString(line)
			cur.WriteByte('\n')
			if strings.HasPrefix(line, "}") {
				objs = append(objs, cur.String())
				cur.Reset()
				in = false
			}
		}
	}
	return objs
}

// sortedKeys returns m's keys sorted — map iteration order must not
// leak into the annotation stream.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// splitPosn parses "file:line:col" from the right, so file paths with
// colons survive.
func splitPosn(posn string) (file string, line, col int) {
	rest := posn
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		col, _ = strconv.Atoi(rest[i+1:])
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		line, _ = strconv.Atoi(rest[i+1:])
		rest = rest[:i]
	}
	return rest, line, col
}

// escapeAnnotation escapes a message for the GitHub workflow-command
// data section.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
