#pragma once
/// \file xlfdd_direct.hpp
/// Direct (cacheless) access to XLFDD drives (paper Sec. 4.1.1).
///
/// The paper's XLFDD software deliberately skips a software cache: with a
/// 16 B alignment, caching "does not reduce the RAF much". A sublist is
/// fetched in one request rounded to the alignment — the drive accepts any
/// multiple of 16 B up to 2 kB, so large sublists need not be split into
/// 128 B GPU cache lines, which is what pushes the average transfer size d
/// toward the average sublist size (~256 B and up).

#include "access/method.hpp"

namespace cxlgraph::access {

struct XlfddDirectParams {
  std::uint32_t alignment = 16;
  std::uint32_t max_transfer = 2048;

  friend bool operator==(const XlfddDirectParams&,
                         const XlfddDirectParams&) = default;
};

class XlfddDirectAccess final : public AccessMethod {
 public:
  explicit XlfddDirectAccess(const XlfddDirectParams& params = {});

  void expand(const algo::SublistRef& read,
              std::vector<Transaction>& out) override;
  const std::string& name() const noexcept override { return name_; }
  std::uint32_t alignment() const noexcept override {
    return params_.alignment;
  }

 private:
  XlfddDirectParams params_;
  std::string name_;
};

}  // namespace cxlgraph::access
