#include "graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/builder.hpp"

namespace cxlgraph::graph {

namespace {

constexpr char kMagic[4] = {'C', 'X', 'L', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("graph binary: truncated stream");
  return value;
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vector(std::istream& is, std::size_t count) {
  std::vector<T> v(count);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!is) throw std::runtime_error("graph binary: truncated array");
  return v;
}

}  // namespace

void save_binary(const CsrGraph& graph, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, graph.num_vertices());
  write_pod(os, graph.num_edges());
  write_pod(os, static_cast<std::uint8_t>(graph.weighted() ? 1 : 0));
  write_vector(os, graph.offsets());
  write_vector(os, graph.edges());
  if (graph.weighted()) write_vector(os, graph.weights());
  if (!os) throw std::runtime_error("graph binary: write failed");
}

CsrGraph load_binary(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("graph binary: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("graph binary: unsupported version " +
                             std::to_string(version));
  }
  const auto n = read_pod<std::uint64_t>(is);
  const auto m = read_pod<std::uint64_t>(is);
  const auto weighted = read_pod<std::uint8_t>(is);
  if (weighted > 1) {
    throw std::runtime_error("graph binary: corrupt weighted flag " +
                             std::to_string(weighted));
  }
  // Validate the header's counts against the bytes actually present
  // before allocating — a corrupt count must not turn into a
  // multi-gigabyte allocation or a garbage graph. The bound keeps the
  // `needed` sum below 2^61 so the size arithmetic cannot wrap (2^56
  // vertices/edges is far past any representable graph anyway).
  constexpr std::uint64_t kMaxCount = 1ull << 56;
  if (n > kMaxCount || m > kMaxCount) {
    throw std::runtime_error("graph binary: implausible counts (" +
                             std::to_string(n) + " vertices, " +
                             std::to_string(m) + " edges)");
  }
  const std::uint64_t needed = (n + 1) * sizeof(EdgeIndex) +
                               m * sizeof(VertexId) +
                               (weighted != 0 ? m * sizeof(Weight) : 0);
  const std::istream::pos_type body_start = is.tellg();
  if (body_start != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type stream_end = is.tellg();
    is.seekg(body_start);
    const auto available =
        static_cast<std::uint64_t>(stream_end - body_start);
    if (available < needed) {
      throw std::runtime_error(
          "graph binary: truncated stream (header promises " +
          std::to_string(needed) + " bytes, " + std::to_string(available) +
          " remain)");
    }
  }
  auto offsets = read_vector<EdgeIndex>(is, n + 1);
  auto edges = read_vector<VertexId>(is, m);
  std::vector<Weight> weights;
  if (weighted != 0) weights = read_vector<Weight>(is, m);
  try {
    return CsrGraph(std::move(offsets), std::move(edges),
                    std::move(weights));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("graph binary: corrupt structure: ") +
                             e.what());
  }
}

void save_binary_file(const CsrGraph& graph, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_binary(graph, os);
}

CsrGraph load_binary_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_binary(is);
}

CsrGraph load_edge_list(std::istream& is, bool symmetrize) {
  EdgeList edges;
  VertexId max_vertex = 0;
  bool any_weight = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    Edge e;
    if (!(ls >> e.src >> e.dst)) {
      throw std::runtime_error("edge list: malformed line: " + line);
    }
    if (ls >> e.weight) {
      any_weight = true;
    } else {
      e.weight = 1;
    }
    max_vertex = std::max({max_vertex, e.src, e.dst});
    edges.push_back(e);
  }
  if (!any_weight) {
    for (Edge& e : edges) e.weight = 1;
  }
  BuildOptions opts;
  opts.symmetrize = symmetrize;
  const std::uint64_t n = edges.empty() ? 0 : max_vertex + 1;
  return build_csr(n, std::move(edges), opts);
}

}  // namespace cxlgraph::graph
