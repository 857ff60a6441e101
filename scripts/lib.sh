# Shared preamble of the smoke drills in this directory. A drill cds to
# the repository root, sets
#   smoke       its name, which prefixes failure messages;
#   smoke_pids  the names of the variables holding the pids it starts (a
#               variable may hold several), so a restart that reassigns
#               one is still stopped;
#   wait_tries  optionally, how many 0.1s polls wait_until makes
#               (default 100, about 10s);
# and sources this file, which makes the scratch directory $workdir and
# stops the drill's processes and removes $workdir on exit.

workdir=$(mktemp -d)

cleanup() {
	for smoke_var in $smoke_pids; do
		eval "smoke_list=\${$smoke_var:-}"
		for smoke_pid in $smoke_list; do
			kill "$smoke_pid" 2>/dev/null || true
		done
	done
	# Reap before removing $workdir: a grbacd with a data directory there
	# writes a final checkpoint on shutdown, and removing it mid-write
	# leaves the rm half done.
	for smoke_var in $smoke_pids; do
		eval "smoke_list=\${$smoke_var:-}"
		for smoke_pid in $smoke_list; do
			wait "$smoke_pid" 2>/dev/null || true
		done
	done
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# wait_until <description> <command...>: poll until the command succeeds;
# after wait_tries polls, fail the drill and dump every log in $workdir.
wait_until() {
	desc=$1
	shift
	i=0
	until "$@" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt "${wait_tries:-100}" ]; then
			echo "$smoke: FAIL: timed out waiting for $desc" >&2
			for f in "$workdir"/*.log; do
				[ -f "$f" ] || continue
				echo "--- ${f##*/} ---" >&2
				cat "$f" >&2
			done
			exit 1
		fi
		sleep 0.1
	done
}
