// Package framesafety enforces the "one framing layer" invariant that
// PR 4 refactored the storage stack onto: every length-prefixed,
// checksummed byte that reaches disk flows through internal/frame.
//
// Outside that package it flags:
//
//   - raw varint length-prefix construction via encoding/binary
//     (AppendUvarint, PutUvarint, AppendVarint, PutVarint, Write) —
//     hand-rolled framing that would bypass frame's MaxFrameLen cap and
//     torn-tail recovery semantics;
//   - any use of hash/crc32 — a second checksum construction is a second
//     framing dialect waiting to diverge from frame's CRC-32C;
//   - opening snap-*/wal-* files for writing via os.Create, os.OpenFile,
//     or os.WriteFile. internal/wal owns the generation-file lifecycle
//     (its writes go through frame.Writer/Append), so its non-test files
//     are exempt; everything else — including wal's own tests, which
//     deliberately corrupt files — must carry a suppression explaining
//     itself.
//
// The file check is best-effort by construction: it matches paths whose
// expression mentions a "snap-"/"wal-" string literal or calls a
// SnapName/WalName-style helper. A path computed from a directory
// listing escapes it, which is acceptable — the check exists to stop the
// obvious regression, not to be a proof.
package framesafety

import (
	"go/ast"
	"strings"

	"vsmartjoin/internal/lint"
)

// Analyzer is the framesafety checker.
var Analyzer = &lint.Analyzer{
	Name: "framesafety",
	Doc:  "disk framing (length prefixes, checksums, snap-*/wal-* files) must go through internal/frame",
	Run:  run,
}

const (
	framePkg = "vsmartjoin/internal/frame"
	walPkg   = "vsmartjoin/internal/wal"
)

// varintWriters are the encoding/binary functions that write the length
// prefixes frame exists to own.
var varintWriters = map[string]bool{
	"AppendUvarint": true,
	"PutUvarint":    true,
	"AppendVarint":  true,
	"PutVarint":     true,
	"Write":         true,
}

// fileWriters are the os entry points that can produce a file.
var fileWriters = map[string]bool{
	"Create":    true,
	"OpenFile":  true,
	"WriteFile": true,
}

func run(pass *lint.Pass) error {
	if pass.Pkg.Path() == framePkg || pass.Pkg.Path() == framePkg+"_test" {
		return nil
	}
	inWal := pass.Pkg.Path() == walPkg

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "encoding/binary":
				if varintWriters[fn.Name()] && lint.PkgLevel(fn) {
					pass.Reportf(call.Pos(),
						"raw length-prefix write binary.%s outside internal/frame: frame all on-disk records with frame.Append/frame.Writer", fn.Name())
				}
			case "hash/crc32":
				pass.Reportf(call.Pos(),
					"checksum construction crc32.%s outside internal/frame: internal/frame owns the one CRC-32C framing", fn.Name())
			case "os":
				if fileWriters[fn.Name()] && lint.PkgLevel(fn) && !(inWal && !pass.InTestFile(call.Pos())) {
					if arg := durableFileArg(pass, call); arg != "" {
						pass.Reportf(call.Pos(),
							"direct os.%s of %s file outside internal/wal: durable generation files are written through internal/frame by internal/wal only", fn.Name(), arg)
					}
				}
			}
			return true
		})
	}
	return nil
}

// durableFileArg inspects a file-writing call's path argument (the
// first) for evidence it names a snapshot or WAL generation file:
// a string literal containing "snap-" or "wal-", or a call to a helper
// whose name contains SnapName/WalName. It returns a short description
// of the evidence, or "".
func durableFileArg(pass *lint.Pass, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	found := ""
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch e := n.(type) {
		case *ast.BasicLit:
			lit := strings.Trim(e.Value, "`\"")
			if strings.Contains(lit, "snap-") {
				found = "snap-*"
			} else if strings.Contains(lit, "wal-") {
				found = "wal-*"
			}
		case *ast.CallExpr:
			if fn := lint.Callee(pass.TypesInfo, e); fn != nil {
				name := strings.ToLower(fn.Name())
				if strings.Contains(name, "snapname") {
					found = "snap-*"
				} else if strings.Contains(name, "walname") {
					found = "wal-*"
				}
			}
		}
		return true
	})
	return found
}
