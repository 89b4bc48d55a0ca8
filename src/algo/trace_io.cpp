#include "algo/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace cxlgraph::algo {

namespace {

constexpr char kMagic[4] = {'C', 'X', 'T', 'R'};
constexpr std::uint32_t kVersion = 2;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("trace binary: truncated stream");
  return value;
}

}  // namespace

void save_trace(const AccessTrace& trace, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, trace.total_sublist_bytes);
  write_pod(os, trace.total_reads);
  write_pod(os, trace.total_write_bytes);
  write_pod(os, trace.total_writes);
  write_pod(os, static_cast<std::uint64_t>(trace.num_steps()));
  for (std::size_t s = 0; s < trace.num_steps(); ++s) {
    const auto reads = trace.step_reads(s);
    write_pod(os, static_cast<std::uint64_t>(reads.size()));
    for (const SublistRef& read : reads) {
      write_pod(os, read.vertex);
      write_pod(os, read.byte_offset);
      write_pod(os, read.byte_len);
    }
    const auto writes = trace.step_writes(s);
    write_pod(os, static_cast<std::uint64_t>(writes.size()));
    for (const WriteRef& write : writes) {
      write_pod(os, write.addr);
      write_pod(os, write.bytes);
    }
  }
  if (!os) throw std::runtime_error("trace binary: write failed");
}

AccessTrace load_trace(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("trace binary: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("trace binary: unsupported version " +
                             std::to_string(version));
  }
  // Nothing is reserved from the header counts: they are checked only
  // at the end, and a corrupt one must fail as a truncated stream.
  AccessTrace trace;
  trace.total_sublist_bytes = read_pod<std::uint64_t>(is);
  trace.total_reads = read_pod<std::uint64_t>(is);
  trace.total_write_bytes = read_pod<std::uint64_t>(is);
  trace.total_writes = read_pod<std::uint64_t>(is);
  const auto num_steps = read_pod<std::uint64_t>(is);

  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  for (std::uint64_t s = 0; s < num_steps; ++s) {
    const auto num_reads = read_pod<std::uint64_t>(is);
    for (std::uint64_t r = 0; r < num_reads; ++r) {
      SublistRef read;
      read.vertex = read_pod<std::uint64_t>(is);
      read.byte_offset = read_pod<std::uint64_t>(is);
      read.byte_len = read_pod<std::uint64_t>(is);
      read_bytes += read.byte_len;
      trace.add_read(read);
    }
    const auto num_writes = read_pod<std::uint64_t>(is);
    for (std::uint64_t w = 0; w < num_writes; ++w) {
      WriteRef write;
      write.addr = read_pod<std::uint64_t>(is);
      write.bytes = read_pod<std::uint64_t>(is);
      write_bytes += write.bytes;
      trace.add_write(write);
    }
    trace.commit_step(/*keep_if_empty=*/true);
  }
  if (read_bytes != trace.total_sublist_bytes ||
      trace.read_arena.size() != trace.total_reads ||
      write_bytes != trace.total_write_bytes ||
      trace.write_arena.size() != trace.total_writes) {
    throw std::runtime_error("trace binary: totals do not match contents");
  }
  return trace;
}

void save_trace_file(const AccessTrace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_trace(trace, os);
}

AccessTrace load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_trace(is);
}

}  // namespace cxlgraph::algo
