// Sort a binary file of records that does not fit in memory, using
// file-backed simulated parallel disks — the paper's motivating scenario
// (§1) end to end: records live on storage, memory holds only M of them.
//
//   ./external_sort_files [N] [M] [D] [B] [scratch-dir]
//
// The example creates an unsorted input file and hands it to the library's
// streaming driver (`sort_file`, DESIGN.md §9): the file streams across D
// scratch disk files M records at a time, Balance Sort runs, and the sorted
// run streams out to the output file through the same M-record buffer,
// checked on the way. All I/O statistics reported are real pread/pwrite
// traffic.
// A malformed number or an impossible machine shape is a usage error
// (reason + usage on stderr, exit 2), reported before any file is created.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "balsort.hpp"
#include "cli_number.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace balsort;

namespace {

constexpr const char* kUsage = "usage: external_sort_files [N] [M] [D] [B] [scratch-dir]\n";

[[noreturn]] void usage_error(const std::string& reason) {
    std::cerr << "external_sort_files: " << reason << '\n' << kUsage;
    std::exit(2);
}

/// Positional argument `i` as a number up to `max`, or `fallback` when absent.
std::uint64_t positional(int argc, char** argv, int i, const char* name, std::uint64_t max,
                         std::uint64_t fallback) {
    if (argc <= i) return fallback;
    const std::optional<std::uint64_t> v = parse_decimal(argv[i], max);
    if (!v) {
        usage_error(std::string(name) + " needs a number up to " + std::to_string(max) +
                    ", got '" + argv[i] + "'");
    }
    return *v;
}

} // namespace

int main(int argc, char** argv) {
    if (argc > 1 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
        std::cout << kUsage;
        return 0;
    }
    if (argc > 6) usage_error("too many arguments");
    constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
    PdmConfig cfg;
    cfg.n = positional(argc, argv, 1, "N", kU64, 1u << 19);
    cfg.m = positional(argc, argv, 2, "M", kU64, 1u << 14);
    cfg.d = static_cast<std::uint32_t>(positional(argc, argv, 3, "D", kU32, 8));
    cfg.b = static_cast<std::uint32_t>(positional(argc, argv, 4, "B", kU32, 128));
    cfg.p = 2;
    try {
        cfg.validate();
    } catch (const std::invalid_argument& e) {
        usage_error(e.what());
    }
    const std::string dir = argc > 5 ? argv[5] : "/tmp";
    const std::string in_path = dir + "/balsort_example_input.bin";
    const std::string out_path = dir + "/balsort_example_sorted.bin";

    std::cout << "External file sort: N=" << cfg.n << " records ("
              << (cfg.n * sizeof(Record)) / (1024 * 1024) << " MiB), memory M=" << cfg.m
              << " records (" << (cfg.m * sizeof(Record)) / 1024 << " KiB), D=" << cfg.d
              << " scratch disks in " << dir << ", B=" << cfg.b << " records/block\n\n";

    // 1. Create the unsorted input file.
    {
        const auto input = generate(Workload::kZipf, cfg.n, 7);
        std::ofstream f(in_path, std::ios::binary);
        if (!f.write(reinterpret_cast<const char*>(input.data()),
                     static_cast<std::streamsize>(input.size() * sizeof(Record)))) {
            std::cerr << "external_sort_files: cannot write " << in_path << '\n';
            return 1;
        }
    }

    // 2-4. Stream it onto the file-backed disk array M records at a time,
    // sort, and stream the sorted run out to the output file through the
    // same M-record buffer, checking it on the way (sort_file: the output
    // file appears only if it is a sorted permutation of the input).
    DiskArray disks(cfg.d, cfg.b, DiskBackend::kFile, dir);
    Timer total;
    SortReport rep;
    double sort_secs = 0;
    try {
        sort_file(in_path, out_path, disks, cfg.m, [&](const BlockRun& run) {
            const Timer sort_timer;
            BlockRun sorted = balance_sort(disks, run, cfg, SortJobConfig{}, &rep);
            sort_secs = sort_timer.seconds();
            return sorted;
        });
    } catch (const std::exception& e) {
        std::cerr << "FAILED: " << e.what() << '\n';
        return 1;
    }

    Table t({"metric", "value"});
    t.add_row({"parallel I/O steps", Table::num(rep.io.io_steps())});
    t.add_row({"blocks transferred", Table::num(rep.io.blocks_read + rep.io.blocks_written)});
    t.add_row({"bytes through scratch disks",
               Table::num((rep.io.blocks_read + rep.io.blocks_written) * cfg.b *
                          sizeof(Record))});
    t.add_row({"Theorem 1 formula", Table::fixed(rep.optimal_ios, 0)});
    t.add_row({"I/O ratio", Table::fixed(rep.io_ratio, 2)});
    t.add_row({"recursion levels", Table::num(rep.levels)});
    t.add_row({"worst bucket read ratio", Table::fixed(rep.worst_bucket_read_ratio, 2)});
    t.add_row({"sort wall time (s)", Table::fixed(sort_secs, 2)});
    t.add_row({"total wall time (s)", Table::fixed(total.seconds(), 2)});
    t.print(std::cout);
    std::cout << "\nOK: " << out_path << " verified sorted (" << cfg.n << " records).\n";

    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
    return 0;
}
