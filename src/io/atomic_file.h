#pragma once
// Crash-safe file writes. A plain ofstream that dies mid-write leaves a
// torn file behind — fatal for snapshots (the checksum only *detects* the
// damage) and for the JSONL trajectory artifacts CI uploads. The helpers
// here write to `<path>.tmp`, flush and fsync, then rename over the target,
// so at every instant the target path holds either the complete old
// contents or the complete new contents, never a mixture.

#include <string>
#include <string_view>
#include <vector>

namespace tsv::io {

/// Atomically replaces `path` with `bytes` (write temp, flush+fsync,
/// rename). Throws tsv::IoCorruptionError if any step fails; the original
/// file is left untouched in that case.
///
/// `durable=false` skips the fsync: the rename still guarantees the target
/// is never torn against *process* death (the page cache survives a killed
/// process), but a power loss right after the rename may leave an empty
/// file. Checkpoints use this — their fault model is a killed run, their
/// consumer tolerates a bad file, and the fsync wait is the bulk of the
/// checkpoint overhead on large fields.
void atomic_write_file(const std::string& path, const std::string& bytes,
                       bool durable = true);

/// Same, for contents given as consecutive parts, written in order without
/// first concatenating them (bulk fields go straight from their vectors).
void atomic_write_file(const std::string& path,
                       const std::vector<std::string_view>& parts,
                       bool durable = true);

/// Appends the parts, in order, to `path` (creating it if missing), without
/// fsync. Not atomic: a failure or a death mid-append leaves a torn tail,
/// so only formats whose reader detects and drops one may use it (the
/// tiled checkpoint log). Throws tsv::IoCorruptionError on failure.
void append_file(const std::string& path,
                 const std::vector<std::string_view>& parts);

/// Atomically appends `line` + '\n' to `path` (creating it if missing) via
/// read + rewrite of the whole file. Intended for small append-mostly
/// artifacts (bench JSONL rows), where the simplicity of full-file rewrite
/// beats journaling; an interrupted append leaves the previous rows intact.
/// Appenders in different processes serialize on an exclusive flock of the
/// containing directory, so concurrent appends to one file all land.
void atomic_append_line(const std::string& path, const std::string& line);

}  // namespace tsv::io
