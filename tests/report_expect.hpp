#pragma once
/// \file report_expect.hpp
/// The algorithm list shared by the suites that run every algorithm.
/// Reports compare with their defaulted operator==: every member, doubles
/// exactly, so two paths must be bit-identical, not merely close.
#include "core/runtime.hpp"

namespace cxlgraph {

inline constexpr core::Algorithm kAllAlgorithms[] = {
    core::Algorithm::kBfs,          core::Algorithm::kSssp,
    core::Algorithm::kCc,           core::Algorithm::kPagerankScan,
    core::Algorithm::kBfsDirOpt,    core::Algorithm::kSsspDelta,
    core::Algorithm::kBfsWriteback};

}  // namespace cxlgraph
