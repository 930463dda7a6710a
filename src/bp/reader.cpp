#include "bp/reader.h"

#include "bp/compress.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/checksum.h"
#include "common/error.h"
#include "common/format.h"
#include "fault/fault.h"
#include "grid/field.h"
#include "par/par.h"

namespace gs::bp {

namespace fs = std::filesystem;

Reader::Reader(std::string path) : path_(std::move(path)) {
  const fs::path idx = fs::path(path_) / kIndexFile;
  if (!fs::exists(idx)) {
    GS_THROW(IoError, "not a bp-mini dataset (missing " << idx.string()
                                                        << ")");
  }
  index_ = Index::from_json(json::parse_file(idx.string()));
  const char* env = std::getenv("GS_MMAP_READS");
  if (env != nullptr && std::string_view(env) == "0") mmap_enabled_ = false;
}

std::vector<std::string> Reader::variable_names() const {
  std::vector<std::string> out;
  out.reserve(index_.variables.size());
  for (const auto& v : index_.variables) out.push_back(v.name);
  return out;
}

std::vector<std::string> Reader::attribute_names() const {
  std::vector<std::string> out;
  out.reserve(index_.attributes.size());
  for (const auto& [k, v] : index_.attributes) {
    (void)v;
    out.push_back(k);
  }
  return out;
}

bool Reader::has_variable(const std::string& name) const {
  return index_.find(name) != nullptr;
}

const json::Value& Reader::attribute(const std::string& name) const {
  const auto it = index_.attributes.find(name);
  if (it == index_.attributes.end()) {
    GS_THROW(IoError, "dataset has no attribute \"" << name << "\"");
  }
  return it->second;
}

const VarRecord& Reader::var(const std::string& name) const {
  const VarRecord* v = index_.find(name);
  if (v == nullptr) {
    GS_THROW(IoError, "dataset has no variable \"" << name << "\"");
  }
  return *v;
}

Reader::VarInfo Reader::info(const std::string& name) const {
  const VarRecord& v = var(name);
  VarInfo out;
  out.name = v.name;
  out.type = v.type;
  out.shape = v.shape;
  if (v.is_scalar()) {
    out.steps = static_cast<std::int64_t>(v.scalar_steps.size());
    if (!v.scalar_steps.empty()) {
      auto [mn, mx] = std::minmax_element(v.scalar_steps.begin(),
                                          v.scalar_steps.end());
      out.min = static_cast<double>(*mn);
      out.max = static_cast<double>(*mx);
    }
  } else {
    out.steps = static_cast<std::int64_t>(v.steps.size());
    out.min = v.global_min();
    out.max = v.global_max();
  }
  return out;
}

std::vector<BlockRecord> Reader::blocks(const std::string& name,
                                        std::int64_t step) const {
  const VarRecord& v = var(name);
  GS_REQUIRE(!v.is_scalar(), "\"" << name << "\" is a scalar");
  GS_REQUIRE(step >= 0 && step < static_cast<std::int64_t>(v.steps.size()),
             "step " << step << " out of range for \"" << name << "\"");
  return v.steps[static_cast<std::size_t>(step)];
}

Reader::BlockResult Reader::load_block_checked(const BlockRecord& block,
                                               const std::string& type) const {
  const std::string fname = subfile_name(block.subfile);
  const fs::path file = fs::path(path_) / fname;
  auto& injector = fault::Injector::instance();

  BlockResult res;
  const auto bad = [&](std::string reason, std::string detail) {
    res.data.clear();
    res.reason = std::move(reason);
    res.detail = std::move(detail);
    return res;
  };

  try {
    injector.check("bp.reader.open_subfile/" + fname);
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      return bad("open_failed", "cannot open subfile " + file.string());
    }
    in.seekg(static_cast<std::streamoff>(block.offset));

    // One contiguous stored payload per block, whatever the encoding,
    // staged in a buffer each reading thread reuses: a fresh allocation
    // per miss lets the allocator retain freed block-sized buffers.
    thread_local std::vector<std::byte> stored;
    stored.resize(static_cast<std::size_t>(block.stored_bytes));
    in.read(reinterpret_cast<char*>(stored.data()),
            static_cast<std::streamsize>(stored.size()));
    if (in.gcount() != static_cast<std::streamsize>(stored.size())) {
      return bad("short_read",
                 "short read from " + file.string() + " at offset " +
                     std::to_string(block.offset) + " (wanted " +
                     std::to_string(stored.size()) + " bytes, got " +
                     std::to_string(in.gcount()) + ")");
    }
    injector.check("bp.reader.read_block/" + fname, stored);

    const auto volume = static_cast<std::size_t>(block.box.volume());
    if (type == "float") {
      // Single-precision storage: verify raw floats, widen to double.
      if (!block.codec.empty()) {
        return bad("bad_codec", "compressed float blocks unsupported");
      }
      if (stored.size() != volume * sizeof(float)) {
        return bad("size_mismatch",
                   "stored size mismatch in " + file.string() +
                       " at offset " + std::to_string(block.offset));
      }
      const std::span<const float> raw(
          reinterpret_cast<const float*>(stored.data()), volume);
      if (block.crc != 0 && par::crc32(std::as_bytes(raw)) != block.crc) {
        return bad("crc_mismatch",
                   "CRC mismatch in " + file.string() + " at offset " +
                       std::to_string(block.offset) +
                       ": data is corrupted");
      }
      res.data.assign(raw.begin(), raw.end());
      return res;
    }

    if (block.codec.empty()) {
      if (stored.size() != volume * sizeof(double)) {
        return bad("size_mismatch",
                   "stored size mismatch in " + file.string() +
                       " at offset " + std::to_string(block.offset));
      }
      const auto* p = reinterpret_cast<const double*>(stored.data());
      res.data.assign(p, p + volume);
    } else {
      if (block.codec != "gorilla") {
        return bad("bad_codec", "unknown codec \"" + block.codec + "\"");
      }
      try {
        res.data = decompress_doubles(stored);
      } catch (const gs::Error& e) {
        return bad("decompress_failed",
                   "decompress failed in " + file.string() + " at offset " +
                       std::to_string(block.offset) + ": " + e.what());
      }
      if (res.data.size() != volume) {
        return bad("size_mismatch",
                   "decompressed size mismatch in " + file.string());
      }
    }
    // Integrity: verify the stored CRC-32 (0 = legacy block without one).
    if (block.crc != 0) {
      const std::uint32_t actual = par::crc32(std::as_bytes(
          std::span<const double>(res.data.data(), res.data.size())));
      if (actual != block.crc) {
        return bad("crc_mismatch",
                   "CRC mismatch in " + file.string() + " at offset " +
                       std::to_string(block.offset) +
                       ": data is corrupted");
      }
    }
    return res;
  } catch (const IoError& e) {
    // Injected (or real) I/O failure during the read: a damaged block,
    // not a crashed reader. fault::Kill is not an IoError and propagates.
    return bad("io_error", e.what());
  }
}

std::vector<double> Reader::load_block(const BlockRecord& block,
                                       const std::string& type) const {
  BlockResult res = load_block_checked(block, type);
  if (!res.ok()) GS_THROW(IoError, res.detail);
  return std::move(res.data);
}

std::optional<Reader::BlockView> Reader::map_block(const BlockRecord& block,
                                                   const std::string& type,
                                                   bool* first_touch) const {
  if (first_touch != nullptr) *first_touch = false;
  if (!mmap_enabled_) return std::nullopt;
  // Only raw double payloads are views over the file bytes; compressed
  // and float blocks need a decode/widen pass, i.e. a copy anyway.
  if (!block.codec.empty() || type != "double") return std::nullopt;
  if (block.offset % alignof(double) != 0) return std::nullopt;
  const auto volume = static_cast<std::size_t>(block.box.volume());
  if (block.stored_bytes != volume * sizeof(double)) return std::nullopt;
  // An armed fault plan forces the copying route: that is where the
  // injection hooks fire and where damage is classified and reported.
  if (fault::Injector::instance().active()) return std::nullopt;

  std::shared_ptr<const MappedFile> file;
  bool needs_verify = false;
  {
    std::lock_guard<std::mutex> lock(mmap_mu_);
    SubfileMap& entry = mmaps_[block.subfile];
    if (!entry.attempted) {
      entry.attempted = true;
      entry.file = MappedFile::map(
          (fs::path(path_) / subfile_name(block.subfile)).string());
    }
    if (entry.file == nullptr) return std::nullopt;
    file = entry.file;
    needs_verify = entry.verified.count(block.offset) == 0;
  }
  const auto bytes = file->bytes();
  if (block.offset + block.stored_bytes > bytes.size()) return std::nullopt;
  const std::span<const double> view(
      reinterpret_cast<const double*>(bytes.data() + block.offset), volume);
  if (needs_verify) {
    // First touch: scan the mapped payload once against the stored CRC
    // (0 = legacy block without one). On mismatch the copying path takes
    // over and reports the damage — nothing is marked verified.
    if (block.crc != 0 &&
        par::crc32(std::as_bytes(view)) != block.crc) {
      return std::nullopt;
    }
    std::lock_guard<std::mutex> lock(mmap_mu_);
    // insert().second de-duplicates concurrent first touches so callers
    // counting cold reads see each block's first touch exactly once.
    const bool inserted =
        mmaps_[block.subfile].verified.insert(block.offset).second;
    if (first_touch != nullptr) *first_touch = inserted;
  }
  return BlockView{view, std::move(file)};
}

std::optional<Reader::BlockView> Reader::try_map_block(
    const std::string& name, std::int64_t step, std::size_t block_index,
    bool* first_touch) const {
  const auto blks = blocks(name, step);
  GS_REQUIRE(block_index < blks.size(),
             "block index " << block_index << " out of " << blks.size());
  return map_block(blks[block_index], var(name).type, first_touch);
}

std::vector<double> Reader::read(const std::string& name, std::int64_t step,
                                 const Box3& selection) const {
  GS_REQUIRE(!selection.empty(), "empty selection");
  const VarRecord& v = var(name);
  GS_REQUIRE(!v.is_scalar(), "\"" << name << "\" is a scalar");
  GS_REQUIRE(selection.start.i >= 0 && selection.start.j >= 0 &&
                 selection.start.k >= 0 &&
                 selection.end().i <= v.shape.i &&
                 selection.end().j <= v.shape.j &&
                 selection.end().k <= v.shape.k,
             "selection " << selection << " outside shape " << v.shape);

  // Plan the read from the index first: collect the intersecting blocks
  // before touching any subfile.
  const auto blks = blocks(name, step);
  std::vector<const BlockRecord*> hit;
  for (const BlockRecord& block : blks) {
    if (block.box.intersect(selection).empty()) continue;
    hit.push_back(&block);
  }

  // One block that IS the selection: hand its payload back without any
  // reframing pass — from the mapping when possible (one memcpy off the
  // page cache), else by moving load_block's buffer.
  if (hit.size() == 1 && hit.front()->box == selection) {
    if (const auto view = map_block(*hit.front(), v.type, nullptr)) {
      return std::vector<double>(view->data.begin(), view->data.end());
    }
    return load_block(*hit.front(), v.type);
  }

  // Sized once from the index. (std::vector value-initializes either
  // way; the fast path above is what actually skips the zero-fill — and
  // the copy — for the dominant block-aligned case. Uncovered cells of a
  // partial-cover selection must read as zeros.)
  const auto volume = static_cast<std::size_t>(selection.volume());
  std::vector<double> out(volume, 0.0);
  for (const BlockRecord* block : hit) {
    if (const auto view = map_block(*block, v.type, nullptr)) {
      copy_overlap(view->data, block->box, selection, out);
    } else {
      const std::vector<double> data = load_block(*block, v.type);
      copy_overlap(data, block->box, selection, out);
    }
  }
  return out;
}

void copy_overlap(std::span<const double> block_data, const Box3& block_box,
                  const Box3& selection, std::span<double> out) {
  GS_REQUIRE(block_data.size() >=
                 static_cast<std::size_t>(block_box.volume()),
             "block payload smaller than its box");
  GS_REQUIRE(out.size() >= static_cast<std::size_t>(selection.volume()),
             "selection buffer smaller than the selection");
  const Box3 overlap = block_box.intersect(selection);
  if (overlap.empty()) return;
  // Full-cover fast path: the block IS the selection, so both frames
  // coincide — one contiguous run instead of per-row copies.
  if (block_box == selection) {
    std::copy_n(block_data.begin(),
                static_cast<std::ptrdiff_t>(block_box.volume()),
                out.begin());
    return;
  }
  // Copy row-runs from the block frame into the selection frame.
  for (std::int64_t k = overlap.start.k; k < overlap.end().k; ++k) {
    for (std::int64_t j = overlap.start.j; j < overlap.end().j; ++j) {
      const Index3 src_local{overlap.start.i - block_box.start.i,
                             j - block_box.start.j, k - block_box.start.k};
      const Index3 dst_local{overlap.start.i - selection.start.i,
                             j - selection.start.j, k - selection.start.k};
      const auto src_off = static_cast<std::size_t>(
          linear_index(src_local, block_box.count));
      const auto dst_off = static_cast<std::size_t>(
          linear_index(dst_local, selection.count));
      std::copy_n(block_data.begin() + static_cast<std::ptrdiff_t>(src_off),
                  overlap.count.i,
                  out.begin() + static_cast<std::ptrdiff_t>(dst_off));
    }
  }
}

std::vector<double> Reader::read_full(const std::string& name,
                                      std::int64_t step) const {
  const VarRecord& v = var(name);
  return read(name, step, Box3{{0, 0, 0}, v.shape});
}

std::int64_t Reader::read_scalar(const std::string& name,
                                 std::int64_t step) const {
  const VarRecord& v = var(name);
  GS_REQUIRE(v.is_scalar(), "\"" << name << "\" is not a scalar");
  GS_REQUIRE(step >= 0 &&
                 step < static_cast<std::int64_t>(v.scalar_steps.size()),
             "step " << step << " out of range for scalar \"" << name
                     << "\"");
  return v.scalar_steps[static_cast<std::size_t>(step)];
}

std::vector<double> Reader::read_block(const std::string& name,
                                       std::int64_t step,
                                       std::size_t block_index) const {
  const auto blks = blocks(name, step);
  GS_REQUIRE(block_index < blks.size(),
             "block index " << block_index << " out of " << blks.size());
  return load_block(blks[block_index], var(name).type);
}

// -------------------------------------------------------------- salvage

Reader::BlockResult Reader::try_read_block(const std::string& name,
                                           std::int64_t step,
                                           std::size_t block_index) const {
  const auto blks = blocks(name, step);
  GS_REQUIRE(block_index < blks.size(),
             "block index " << block_index << " out of " << blks.size());
  return load_block_checked(blks[block_index], var(name).type);
}

std::vector<double> Reader::read_salvage(const std::string& name,
                                         std::int64_t step,
                                         const Box3& selection,
                                         SalvageReport& report) const {
  GS_REQUIRE(!selection.empty(), "empty selection");
  const VarRecord& v = var(name);
  GS_REQUIRE(!v.is_scalar(), "\"" << name << "\" is a scalar");
  GS_REQUIRE(selection.start.i >= 0 && selection.start.j >= 0 &&
                 selection.start.k >= 0 &&
                 selection.end().i <= v.shape.i &&
                 selection.end().j <= v.shape.j &&
                 selection.end().k <= v.shape.k,
             "selection " << selection << " outside shape " << v.shape);

  std::vector<double> out(static_cast<std::size_t>(selection.volume()), 0.0);
  const auto blks = blocks(name, step);
  for (std::size_t i = 0; i < blks.size(); ++i) {
    const BlockRecord& block = blks[i];
    const Box3 overlap = block.box.intersect(selection);
    if (overlap.empty()) continue;
    ++report.blocks_checked;
    BlockResult res = load_block_checked(block, v.type);
    if (!res.ok()) {
      // Damaged block: its overlap stays zero; record it and keep going.
      report.bad.push_back({name, step, i, subfile_name(block.subfile),
                            block.offset, res.reason, res.detail});
      continue;
    }
    copy_overlap(res.data, block.box, selection, out);
  }
  return out;
}

std::vector<double> Reader::read_full_salvage(const std::string& name,
                                              std::int64_t step,
                                              SalvageReport& report) const {
  const VarRecord& v = var(name);
  return read_salvage(name, step, Box3{{0, 0, 0}, v.shape}, report);
}

SalvageReport Reader::verify() const {
  SalvageReport rep;
  for (const auto& v : index_.variables) {
    if (v.is_scalar()) continue;  // scalars live in the index itself
    for (std::size_t step = 0; step < v.steps.size(); ++step) {
      const auto& blks = v.steps[step];
      for (std::size_t i = 0; i < blks.size(); ++i) {
        ++rep.blocks_checked;
        const BlockResult res = load_block_checked(blks[i], v.type);
        if (!res.ok()) {
          rep.bad.push_back({v.name, static_cast<std::int64_t>(step), i,
                             subfile_name(blks[i].subfile), blks[i].offset,
                             res.reason, res.detail});
        }
      }
    }
  }
  return rep;
}

json::Value SalvageReport::to_json() const {
  json::Array bad_json;
  for (const auto& b : bad) {
    json::Object o;
    o["variable"] = json::Value(b.variable);
    o["step"] = json::Value(b.step);
    o["block"] = json::Value(static_cast<std::int64_t>(b.block_index));
    o["subfile"] = json::Value(b.subfile);
    o["offset"] = json::Value(static_cast<std::int64_t>(b.offset));
    o["reason"] = json::Value(b.reason);
    o["detail"] = json::Value(b.detail);
    bad_json.emplace_back(std::move(o));
  }
  json::Object root;
  root["blocks_checked"] = json::Value(
      static_cast<std::int64_t>(blocks_checked));
  root["blocks_bad"] = json::Value(static_cast<std::int64_t>(bad.size()));
  root["bad"] = json::Value(std::move(bad_json));
  return json::Value(std::move(root));
}

std::string SalvageReport::report() const {
  std::ostringstream oss;
  for (const auto& b : bad) {
    oss << "  BAD " << b.variable << " step " << b.step << " block "
        << b.block_index << " (" << b.subfile << " @" << b.offset
        << "): " << b.reason << " — " << b.detail << "\n";
  }
  oss << (bad.empty() ? "  OK " : "  FAILED ") << blocks_checked
      << " blocks checked, " << bad.size() << " bad\n";
  return oss.str();
}

// ----------------------------------------------------------------- dump

std::string dump(const Reader& reader) {
  std::ostringstream oss;
  const auto fmt_double = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };

  // Attributes first, Listing 1 style:
  //   double   Du    attr   = 0.2
  for (const auto& name : reader.attribute_names()) {
    const auto& v = reader.attribute(name);
    if (v.is_number()) {
      char line[128];
      std::snprintf(line, sizeof(line), "  double   %-8s attr   = %s",
                    name.c_str(), fmt_double(v.as_double()).c_str());
      oss << line << "\n";
    } else if (v.is_string()) {
      oss << "  string   " << name << " attr   = \"" << v.as_string()
          << "\"\n";
    } else {
      oss << "  attr     " << name << " = " << v.dump() << "\n";
    }
  }

  // Variables:
  //   double   U   100*{64, 64, 64} = Min/Max -0.12 / 1.47
  //   int64_t  step 50*scalar = 20 / 1000
  for (const auto& name : reader.variable_names()) {
    const auto info = reader.info(name);
    if (info.type == "int64") {
      oss << "  int64_t  " << info.name << "  " << info.steps
          << "*scalar = " << static_cast<std::int64_t>(info.min) << " / "
          << static_cast<std::int64_t>(info.max) << "\n";
    } else {
      char type_col[16];
      std::snprintf(type_col, sizeof(type_col), "%-8s",
                    info.type.c_str());
      oss << "  " << type_col << " " << info.name << "  " << info.steps << "*{"
          << info.shape.i << ", " << info.shape.j << ", " << info.shape.k
          << "}  Min/Max " << fmt_double(info.min) << " / "
          << fmt_double(info.max) << "\n";
    }
  }
  return oss.str();
}

std::string dump(const std::string& path) { return dump(Reader(path)); }

}  // namespace gs::bp
