#pragma once
/// \file sort_stream.hpp
/// The streaming sort driver (DESIGN.md §9), the one path balsort_cli,
/// external_sort_files and the sort service take around a sort:
///
///     fill -> RunWriter -> input run -> sort -> output run -> RunReader -> sink
///
/// Input passes through one caller-owned buffer, output through the
/// RunReader's carry of the same size, and both can fold into one
/// StreamCheck, so the driver checks its own output in the same pass. Peak
/// memory is the two buffers plus the runs' block lists, whatever n is.

#include <cstdint>
#include <span>
#include <string>

#include "pdm/striping.hpp"
#include "util/function_ref.hpp"
#include "util/stream_check.hpp"

namespace balsort {

/// The laid-out input run in, a sorted run of the same records out (a run
/// of its own: the driver releases both once the output is read back).
using SortStep = FunctionRef<BlockRun(const BlockRun&)>;

/// Sort n records: `fill(chunk)` fills `chunk` (a piece of `buf`) with the
/// next input records, and `sink` gets the sorted records in order, in
/// views of at most buf.size() records into the reader's carry.
/// A buffer of whole stripes (D·B records) reads the output back in exactly
/// the steps of one whole-run read. With `check`, a wrong output throws
/// std::runtime_error with the check's reason. `sort` is not called for
/// n = 0. Returns the seconds spent in the check.
double sort_stream(DiskArray& disks, std::uint64_t n, std::span<Record> buf,
                   FunctionRef<void(std::span<Record>)> fill, SortStep sort,
                   FunctionRef<void(std::span<const Record>)> sink, StreamCheck* check);

/// Sort the file `in` of 16-byte records into `out` through an M-record
/// buffer, always checked. The output goes to `<out>.tmp`, renamed onto
/// `out` only once the whole stream passed the check. Any failure (missing
/// input, a size that is not a multiple of 16 bytes, a short read or write,
/// a failed check, an error of `sort`) throws, leaves `out` as it was and
/// removes `<out>.tmp`. Returns the seconds spent in the check.
double sort_file(const std::string& in, const std::string& out, DiskArray& disks,
                 std::uint64_t m, SortStep sort);

} // namespace balsort
