//===- analysis/CFG.h - Control-flow queries over superblocks ---*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow utilities over the superblock-style IR: resolving each
/// branch's target through its preparing pbr, and enumerating block
/// successors (interior branch targets plus the layout fall-through), and
/// a block-id to layout-index map for analyses that resolve many exits.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_CFG_H
#define ANALYSIS_CFG_H

#include "ir/Function.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace cpr {

/// Returns the target block of the Branch at \p OpIdx of \p B, resolved by
/// scanning backwards for the pbr that wrote its BTR operand. Returns
/// InvalidBlockId when no preparing pbr exists (rejected by the verifier).
BlockId resolveBranchTarget(const Block &B, size_t OpIdx);

/// One control-flow exit of a block.
struct BlockExit {
  /// Index of the exiting operation, or -1 for the layout fall-through.
  int OpIdx;
  /// Target block, or InvalidBlockId for halt/trap/fall-off-end.
  BlockId Target;
  bool isFallThrough() const { return OpIdx < 0; }
};

/// Enumerates the exits of block \p LayoutIdx of \p F: one entry per
/// interior branch (in program order), one per halt/trap, and a trailing
/// fall-through entry to the next layout block when control can reach the
/// end of the block.
std::vector<BlockExit> blockExits(const Function &F, size_t LayoutIdx);

/// Returns the successor block ids of block \p LayoutIdx (deduplicated,
/// excluding InvalidBlockId).
std::vector<BlockId> blockSuccessors(const Function &F, size_t LayoutIdx);

/// Block id -> layout index for one snapshot of a function's layout,
/// without Function::layoutIndex's linear scan: ids below the function's
/// block-id allocator index a table directly. The table is capped at a
/// multiple of the block count, so memory stays proportional to it; ids
/// past the cap (a function that created and dropped many blocks) fall
/// back to a binary search.
class LayoutMap {
public:
  explicit LayoutMap(const Function &F);

  /// Layout index of block \p Id, or -1 when no block has that id.
  int indexOf(BlockId Id) const {
    return Id < Dense.size() ? Dense[Id] : searchOverflow(Id);
  }

private:
  int searchOverflow(BlockId Id) const;

  std::vector<int> Dense;
  std::vector<std::pair<BlockId, int>> Overflow; ///< sorted by id
};

/// The exits of every block of one function snapshot (blockExits, in the
/// same order), each target also resolved to its layout index, built in
/// one pass so an analysis and its solver share one enumeration.
class ExitTable {
public:
  struct Exit {
    int OpIdx;       ///< exiting op, or -1 for the layout fall-through
    BlockId Target;  ///< InvalidBlockId for halt/trap/fall-off-end
    int TargetIdx;   ///< layout index of Target; -1 if none or vanished
  };
  struct Range {
    const Exit *First, *Last;
    const Exit *begin() const { return First; }
    const Exit *end() const { return Last; }
  };

  ExitTable(const Function &F, const LayoutMap &Layout);

  /// Exits of block \p LayoutIdx.
  Range of(size_t LayoutIdx) const {
    const Exit *Base = All.data();
    return Range{Base + Begin[LayoutIdx], Base + Begin[LayoutIdx + 1]};
  }

private:
  std::vector<Exit> All;
  std::vector<uint32_t> Begin; ///< per block, plus one end sentinel
};

} // namespace cpr

#endif // ANALYSIS_CFG_H
