#include "core/sort_stream.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/timer.hpp"

namespace balsort {

double sort_stream(DiskArray& disks, std::uint64_t n, std::span<Record> buf,
                   FunctionRef<void(std::span<Record>)> fill, SortStep sort,
                   FunctionRef<void(std::span<const Record>)> sink, StreamCheck* check) {
    BS_REQUIRE(n == 0 || !buf.empty(), "sort_stream: need a buffer of at least one record");
    double check_s = 0;
    auto fold = [&](std::span<const Record> chunk, bool output) {
        if (check == nullptr) return;
        const Timer t;
        output ? check->output(chunk) : check->input(chunk);
        check_s += t.seconds();
    };
    if (n > 0) {
        RunWriter w(disks);
        for (std::uint64_t off = 0; off < n; off += buf.size()) {
            const std::span<Record> chunk = buf.first(std::min<std::uint64_t>(buf.size(), n - off));
            fill(chunk);
            fold(chunk, false);
            w.append(chunk);
        }
        const BlockRun in = w.finish();
        const BlockRun out = sort(in);
        in.release(disks);
        {
            RunReader r(disks, out);
            while (r.remaining() > 0) {
                const std::span<const Record> chunk = r.next(buf.size());
                fold(chunk, true);
                sink(chunk);
            }
        }
        out.release(disks);
    }
    if (check != nullptr) {
        if (const std::string why = check->failure(); !why.empty()) throw std::runtime_error(why);
    }
    return check_s;
}

double sort_file(const std::string& in, const std::string& out, DiskArray& disks,
                 std::uint64_t m, SortStep sort) {
    using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;
    auto open = [](const std::string& path, const char* mode) {
        FilePtr f(std::fopen(path.c_str(), mode), &std::fclose);
        if (f == nullptr) {
            throw std::runtime_error("cannot open " + path + ": " + std::strerror(errno));
        }
        return f;
    };
    FilePtr input = open(in, "rb");
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(in, ec);
    if (ec) throw std::runtime_error("cannot read " + in + ": " + ec.message());
    if (bytes % sizeof(Record) != 0) {
        throw std::runtime_error(in + ": size " + std::to_string(bytes) +
                                 " is not a multiple of 16 bytes");
    }
    // Everything goes to `<out>.tmp`, renamed onto `out` only after the
    // whole stream passed the check; any failure removes it.
    const std::string tmp = out + ".tmp";
    auto write_error = [&tmp] {
        return std::runtime_error("cannot write " + tmp + ": " + std::strerror(errno));
    };
    FilePtr output = open(tmp, "wb");
    try {
        const std::uint64_t n = bytes / sizeof(Record);
        std::vector<Record> buf(std::min(m, n));
        StreamCheck check;
        const double check_s = sort_stream(
            disks, n, buf,
            [&](std::span<Record> chunk) {
                if (std::fread(chunk.data(), sizeof(Record), chunk.size(), input.get()) !=
                    chunk.size()) {
                    throw std::runtime_error(in + ": short read");
                }
            },
            sort,
            [&](std::span<const Record> chunk) {
                if (std::fwrite(chunk.data(), sizeof(Record), chunk.size(), output.get()) !=
                    chunk.size()) {
                    throw write_error();
                }
            },
            &check);
        // Closing reports what the last flush of buffered data hit.
        if (std::fclose(output.release()) != 0) throw write_error();
        std::filesystem::rename(tmp, out, ec);
        if (ec) {
            throw std::runtime_error("cannot rename " + tmp + " to " + out + ": " + ec.message());
        }
        return check_s;
    } catch (...) {
        output.reset();
        std::filesystem::remove(tmp, ec);
        throw;
    }
}

} // namespace balsort
