#include "runlog/sinks.hpp"

namespace scv {

void SymbolStats::merge(const SymbolStats& other) noexcept {
  steps += other.steps;
  node_descs += other.node_descs;
  add_ids += other.add_ids;
  po_edges += other.po_edges;
  sto_edges += other.sto_edges;
  inh_edges += other.inh_edges;
  forced_edges += other.forced_edges;
  peak_bound_ids = std::max(peak_bound_ids, other.peak_bound_ids);
}

std::string SymbolStats::summary() const {
  std::string s = "steps=" + std::to_string(steps) +
                  " symbols=" + std::to_string(symbols()) +
                  " nodes=" + std::to_string(node_descs) +
                  " add-ids=" + std::to_string(add_ids) +
                  " edges=" + std::to_string(edges()) + " (po=" +
                  std::to_string(po_edges) + " sto=" +
                  std::to_string(sto_edges) + " inh=" +
                  std::to_string(inh_edges) + " forced=" +
                  std::to_string(forced_edges) + ")";
  if (peak_bound_ids > 0) {
    s += " peak-ids=" + std::to_string(peak_bound_ids);
  }
  return s;
}

void SymbolStatsSink::on_symbol(const Symbol& sym) {
  if (const auto* n = std::get_if<NodeDesc>(&sym)) {
    ++stats_.node_descs;
    // A node descriptor retires whatever held exactly {id} and rebinds the
    // ID to the fresh node, so the bound set is unchanged — just ensure the
    // ID is marked.
    bind(n->id);
    return;
  }
  if (const auto* e = std::get_if<EdgeDesc>(&sym)) {
    if ((e->anno & kAnnoPo) != 0) ++stats_.po_edges;
    if ((e->anno & kAnnoSto) != 0) ++stats_.sto_edges;
    if ((e->anno & kAnnoInh) != 0) ++stats_.inh_edges;
    if ((e->anno & kAnnoForced) != 0) ++stats_.forced_edges;
    return;
  }
  const auto& a = std::get<AddId>(sym);
  ++stats_.add_ids;
  if (a.added == null_id_) {
    // add-ID(I, k+1) is the retirement idiom: the node holding I gives up
    // all real IDs.  The observer only uses it when I is the node's sole ID,
    // so unbinding I alone is exact for observer-emitted streams.
    if (a.existing < 64) bound_ &= ~(1ULL << a.existing);
  } else {
    bind(a.added);
  }
}

void SymbolStatsSink::on_batch(std::span<const Symbol> syms) {
  for (const Symbol& sym : syms) SymbolStatsSink::on_symbol(sym);
}

}  // namespace scv
