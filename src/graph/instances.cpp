#include "graph/instances.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace bpm::graph {

const char* to_string(InstanceClass c) {
  switch (c) {
    case InstanceClass::kSocial: return "social";
    case InstanceClass::kWeb: return "web";
    case InstanceClass::kKron: return "kron";
    case InstanceClass::kRoad: return "road";
    case InstanceClass::kOsm: return "osm";
    case InstanceClass::kDelaunay: return "delaunay";
    case InstanceClass::kTrace: return "trace";
    case InstanceClass::kCoPaper: return "copaper";
    case InstanceClass::kCircuit: return "circuit";
    case InstanceClass::kCombinat: return "combinat";
  }
  return "unknown";
}

BipartiteGraph Instance::build(double scale, std::uint64_t seed) const {
  if (scale <= 0.0) throw std::invalid_argument("Instance::build: scale <= 0");
  // Target vertex count per side, never below a floor that keeps the
  // instance meaningful.
  const auto target = [&](std::int64_t paper_count) {
    const double count = std::max<double>(
        1024.0, std::round(static_cast<double>(paper_count) * scale));
    if (!(count <= static_cast<double>(std::numeric_limits<index_t>::max())))
      throw std::invalid_argument("Instance::build: " + name + " at scale " +
                                  std::to_string(scale) +
                                  " does not fit a 32-bit vertex index");
    return static_cast<index_t>(count);
  };
  const index_t n = target(paper.rows);
  const double avg_deg =
      static_cast<double>(paper.edges) / static_cast<double>(paper.rows);

  switch (cls) {
    case InstanceClass::kSocial:
      return gen::chung_lu(n, target(paper.cols), avg_deg, 2.6, seed);
    case InstanceClass::kWeb:
      // Exponent tuned so the matchable fraction MM/n of the three web
      // instances tracks Table I (eu-2005 0.76, in-2004 0.58, wb-edu
      // 0.51): web deficiency comes from hub concentration, so the tail
      // must be heavier than for the social class.
      return gen::chung_lu(n, target(paper.cols), avg_deg, 2.05, seed);
    case InstanceClass::kKron: {
      const int sc = std::max(8, static_cast<int>(std::lround(
                                     std::log2(static_cast<double>(n)))));
      return gen::rmat(sc, avg_deg, seed);
    }
    // Road and Delaunay matrices in the collection are ordered by point /
    // OSM-node id, not by lattice coordinates; the random permutation
    // removes the lattice-order locality that would otherwise let the
    // greedy init reach ~99% (the paper's IM/MM sits at 86-95% for these
    // classes).  Trace meshes keep their natural band ordering, as FEM
    // exports do (paper IM/MM ≈ 99.8%).
    case InstanceClass::kRoad: {
      const auto side = static_cast<index_t>(
          std::max(32.0, std::sqrt(static_cast<double>(n))));
      return permute_vertices(gen::road_network(side, side, 0.9, seed),
                              seed ^ 0xf00dULL);
    }
    case InstanceClass::kOsm: {
      const auto side = static_cast<index_t>(
          std::max(32.0, std::sqrt(static_cast<double>(n))));
      return permute_vertices(gen::road_network(side, side, 0.52, seed),
                              seed ^ 0x05afULL);
    }
    case InstanceClass::kDelaunay: {
      const auto side = static_cast<index_t>(
          std::max(32.0, std::sqrt(static_cast<double>(n))));
      return permute_vertices(gen::delaunay_mesh(side, side, seed),
                              seed ^ 0xde1aULL);
    }
    case InstanceClass::kTrace: {
      // Thin strip: width grows slowly with n so diameter stays Θ(n/width).
      const auto width = static_cast<index_t>(std::max(
          4.0, std::pow(static_cast<double>(n), 0.25)));
      const auto length = std::max<index_t>(16, n / width);
      const double holes = name.find("bubbles") != std::string::npos ? 0.08 : 0.02;
      return gen::trace_mesh(length, width, holes, seed);
    }
    case InstanceClass::kCoPaper: {
      // avg degree ~28 in coPapersDBLP; communities sized ~12 give
      // |E| ≈ communities * s^2 ≈ desired.
      const double avg_comm = 12.0;
      const auto comms = static_cast<index_t>(
          std::max(16.0, static_cast<double>(n) * avg_deg /
                             (avg_comm * (avg_comm - 1.0))));
      return gen::copaper(n, comms, avg_comm, seed);
    }
    case InstanceClass::kCircuit:
      return gen::planted_perfect(n, std::max(0.5, avg_deg - 1.0), seed);
    case InstanceClass::kCombinat:
      return gen::random_uniform(
          n, target(paper.cols),
          static_cast<offset_t>(avg_deg * static_cast<double>(n)), seed);
  }
  throw std::logic_error("Instance::build: unhandled class");
}

const std::vector<Instance>& paper_instances() {
  // Table I of the paper, verbatim: id, name, rows, cols, edges, IM, MM,
  // and the four runtime columns (seconds).
  static const std::vector<Instance> kInstances = {
      {1, "amazon0505", InstanceClass::kSocial,
       {410236, 410236, 3356824, 332972, 395397, 0.09, 0.18, 22.70, 0.52}},
      {2, "coPapersDBLP", InstanceClass::kCoPaper,
       {540486, 540486, 15245729, 510992, 540226, 0.62, 0.42, 6.27, 0.59}},
      {3, "amazon-2008", InstanceClass::kSocial,
       {735323, 735323, 5158388, 587877, 641379, 0.12, 0.11, 0.18, 0.93}},
      {4, "flickr", InstanceClass::kSocial,
       {820878, 820878, 9837214, 285241, 367147, 0.13, 0.22, 0.35, 0.99}},
      {5, "eu-2005", InstanceClass::kWeb,
       {862664, 862664, 19235140, 642027, 652328, 0.40, 1.54, 0.94, 0.80}},
      {6, "delaunay_n20", InstanceClass::kDelaunay,
       {1048576, 1048576, 3145686, 993174, 1048576, 0.06, 0.04, 0.09, 0.32}},
      {7, "kron_g500-logn20", InstanceClass::kKron,
       {1048576, 1048576, 44620272, 431854, 513334, 0.38, 0.60, 8.19, 1.24}},
      {8, "roadNet-PA", InstanceClass::kRoad,
       {1090920, 1090920, 1541898, 916444, 1059398, 0.33, 0.14, 0.29, 0.59}},
      {9, "in-2004", InstanceClass::kWeb,
       {1382908, 1382908, 16917053, 781063, 804245, 0.58, 1.44, 2.16, 0.56}},
      {10, "roadNet-TX", InstanceClass::kRoad,
       {1393383, 1393383, 1921660, 1158420, 1342440, 0.45, 0.14, 0.33, 0.69}},
      {11, "Hamrle3", InstanceClass::kCircuit,
       {1447360, 1447360, 5514242, 1211049, 1447360, 0.94, 1.36, 2.70, 0.56}},
      {12, "as-Skitter", InstanceClass::kSocial,
       {1696415, 1696415, 11095298, 891280, 1035521, 0.34, 0.49, 1.89, 1.13}},
      {13, "GL7d19", InstanceClass::kCombinat,
       {1911130, 1955309, 37322725, 1904144, 1911130, 0.24, 0.58, 0.38, 1.38}},
      {14, "roadNet-CA", InstanceClass::kRoad,
       {1971281, 1971281, 2766607, 1668268, 1913589, 0.68, 0.34, 0.53, 1.55}},
      {15, "delaunay_n21", InstanceClass::kDelaunay,
       {2097152, 2097152, 6291408, 1987326, 2097152, 0.18, 0.13, 0.21, 1.06}},
      {16, "kron_g500-logn21", InstanceClass::kKron,
       {2097152, 2097152, 91042010, 812883, 964679, 0.68, 0.99, 1.50, 2.77}},
      {17, "wikipedia-20070206", InstanceClass::kSocial,
       {3566907, 3566907, 45030389, 1623931, 1992408, 0.62, 1.09, 5.24, 3.11}},
      {18, "patents", InstanceClass::kSocial,
       {3774768, 3774768, 14970767, 1892820, 2011083, 0.54, 0.88, 0.84, 3.65}},
      {19, "com-livejournal", InstanceClass::kSocial,
       {3997962, 3997962, 34681189, 2577642, 3608272, 2.08, 4.58, 22.46, 9.67}},
      {20, "hugetrace-00000", InstanceClass::kTrace,
       {4588484, 4588484, 6879133, 4581148, 4588484, 2.71, 1.96, 0.83, 0.84}},
      {21, "soc-LiveJournal1", InstanceClass::kSocial,
       {4847571, 4847571, 68993773, 2831783, 3835002, 1.35, 3.32, 14.35, 12.66}},
      {22, "ljournal-2008", InstanceClass::kSocial,
       {5363260, 5363260, 79023142, 3941073, 4355699, 1.54, 2.37, 10.30, 10.01}},
      {23, "italy_osm", InstanceClass::kOsm,
       {6686493, 6686493, 7013978, 6438492, 6644390, 5.46, 5.86, 1.20, 6.84}},
      {24, "delaunay_n23", InstanceClass::kDelaunay,
       {8388608, 8388608, 25165784, 7950070, 8388608, 0.81, 0.96, 1.26, 8.86}},
      {25, "wb-edu", InstanceClass::kWeb,
       {9845725, 9845725, 57156537, 4810825, 5000334, 2.00, 33.82, 8.61, 3.94}},
      {26, "hugetrace-00020", InstanceClass::kTrace,
       {16002413, 16002413, 23998813, 15535760, 16002413, 14.19, 7.90, 393.13, 28.69}},
      {27, "delaunay_n24", InstanceClass::kDelaunay,
       {16777216, 16777216, 50331601, 15892194, 16777216, 1.83, 1.98, 2.41, 23.01}},
      {28, "hugebubbles-00000", InstanceClass::kTrace,
       {18318143, 18318143, 27470081, 18303614, 18318143, 13.65, 13.16, 3.55, 13.51}},
  };
  return kInstances;
}

std::vector<Instance> select_instances(int stride) {
  if (stride < 1) throw std::invalid_argument("select_instances: stride < 1");
  std::vector<Instance> out;
  const auto& all = paper_instances();
  for (std::size_t i = 0; i < all.size(); i += static_cast<std::size_t>(stride))
    out.push_back(all[i]);
  return out;
}

}  // namespace bpm::graph
