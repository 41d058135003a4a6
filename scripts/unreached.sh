#!/bin/sh
# Reachability gate: every non-test function must be linked by one of the
# nine programs (the four commands, the four examples and the benchmark), or
# be named in scripts/unreached.allow with a reason.
#
# The programs are built without inlining (-gcflags=all=-l), so a function
# the compiler would fold into its caller still shows up as a symbol, for
# amd64 and for arm64 (the !amd64 stand-ins of the assembly kernels). The
# union of their adascale text symbols is subtracted from the list of `^func`
# declarations. Names are normalised on both sides: generic brackets, closure
# suffixes (.funcN, .gowrapN, .deferwrapN, -fm, -rangeN) and .abi0 are
# stripped, and every init function is `init.N`.
#
# The gate fails on a function that is neither reached nor allowed, and on a
# stale allowlist entry: one that is reached or no longer declared.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The main packages, by import path; the benchmark is a module of its own.
mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)

# text <main import path>: the text symbols of `go tool nm` output, whole (a
# generic's shape may hold spaces), with main.X renamed to the main package's
# import path.
text() {
	awk -v pkg="$1" '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); sub(/^main\./, pkg "."); print }'
}

for arch in amd64 arm64; do
	for pkg in $mains; do
		GOARCH=$arch go build -gcflags=all=-l -o "$tmp/bin" "./${pkg#adascale/}"
		go tool nm "$tmp/bin" | text "$pkg" >>"$tmp/syms"
	done
	GOARCH=$arch go -C benchmark build -gcflags=all=-l -o "$tmp/bin" .
	go tool nm "$tmp/bin" | text main >>"$tmp/syms"
done

# Normalise symbol names to the form the declaration list below uses.
grep '^adascale' "$tmp/syms" | awk '
	{
		s = $0
		# Nested generic brackets: strip innermost first.
		while (gsub(/\[[^][]*\]/, "", s)) {}
		sub(/\.abi0$/, "", s)
		sub(/-fm$/, "", s)
		while (sub(/(\.(func|gowrap|deferwrap)[0-9]+|\.[0-9]+|-range[0-9]+)$/, "", s)) {}
		sub(/\.init$/, ".init.N", s)
		print s
	}' | sort -u >"$tmp/reached"

# Every non-test func declaration of the module, including the files build
# constraints exclude on this GOARCH: "symbol<TAB>file:line<TAB>lines".
go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}{{range .IgnoredGoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}' ./... | grep -v '_test\.go$' | while read -r pkg f; do
	awk -v pkg="$pkg" -v file="${f#"$PWD"/}" '
		function emit() { if (name != "") printf "%s.%s\t%s:%d\t%d\n", pkg, name, file, start, NR - start + 1 }
		open && /^}/ { emit(); open = 0; name = "" }
		/^func / {
			line = $0
			sub(/^func /, "", line)
			recv = ""
			if (line ~ /^\(/) {
				# Receiver: keep the type, drop its name and type parameters.
				r = substr(line, 2, index(line, ")") - 2)
				line = substr(line, index(line, ")") + 1)
				sub(/^ +/, "", line)
				sub(/\[.*\]/, "", r)
				n = split(r, parts, " ")
				t = parts[n]
				recv = (t ~ /^\*/) ? "(" t ")." : t "."
			}
			match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
			fn = substr(line, 1, RLENGTH)
			if (recv == "" && fn == "init") fn = "init.N"
			name = recv fn
			start = NR
			# A one-line function, or a declaration without a body (assembly).
			if ($0 ~ /}$/ || $0 !~ /{$/ && $0 ~ /\)( [^{]*)?$/) { emit(); name = ""; next }
			open = 1
		}'  "$f"
done | sort >"$tmp/declared"

cut -f1 "$tmp/declared" | sort -u >"$tmp/declared.names"
awk -F '\t' 'NR == FNR { reached[$1] = 1; next } !($1 in reached)' "$tmp/reached" "$tmp/declared" >"$tmp/unreached"

# The allowlist: "symbol  # reason"; blank lines and whole-line comments are
# skipped. An entry without a reason, declared nowhere or reached is an error.
bad=0
grep -v -e '^[[:space:]]*$' -e '^[[:space:]]*#' scripts/unreached.allow >"$tmp/allow" || true
awk '
	FILENAME == ARGV[1] { declared[$1] = 1; next }
	FILENAME == ARGV[2] { reached[$1] = 1; next }
	{
		sym = $1
		reason = $0
		if (!sub(/^[^#]*#[[:space:]]*/, "", reason)) reason = ""
		if (reason == "") { print "unreached.allow: " sym " has no reason"; bad = 1 }
		else if (!(sym in declared)) { print "unreached.allow: stale entry " sym ": no such function is declared"; bad = 1 }
		else if (sym in reached) { print "unreached.allow: stale entry " sym ": a program links it now"; bad = 1 }
		if (seen[sym]++) { print "unreached.allow: duplicate entry " sym; bad = 1 }
	}
	END { exit bad }' "$tmp/declared.names" "$tmp/reached" "$tmp/allow" >&2 || bad=1
awk '{ print $1 }' "$tmp/allow" | sort -u >"$tmp/allowed"

awk -F '\t' 'NR == FNR { allowed[$1] = 1; next } !($1 in allowed)' "$tmp/allowed" "$tmp/unreached" >"$tmp/hits"
if [ -s "$tmp/hits" ]; then
	echo "functions no program links (delete them, link them, or allow them with a reason in scripts/unreached.allow):" >&2
	sed 's/^/  /' "$tmp/hits" >&2
	bad=1
fi
[ "$bad" = 0 ] && echo "unreached: every function is linked or allowed ($(wc -l <"$tmp/allowed") allowed)"
exit "$bad"
