#include "io/snapshot.h"

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "analytic/mode_solver.h"
#include "core/error.h"
#include "io/atomic_file.h"
#include "io/mapped_file.h"
#include "numeric/fault_injection.h"

namespace tsv::io {
namespace {

constexpr char kMagic[8] = {'T', 'S', 'V', 'S', 'N', 'A', 'P', '\0'};

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a 64 of `n` bytes, continuing from `h` (so a payload held in
/// several pieces hashes as if concatenated).
std::uint64_t fnv1a64(const char* bytes, std::size_t n,
                      std::uint64_t h = kFnvBasis) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  return fnv1a64(bytes.data(), bytes.size());
}

/// FNV-1a's xor-multiply step per 8-byte word (then per byte for a tail),
/// for checkpoint records: the byte-wise hash runs at about a byte per
/// nanosecond, half the writer's time on a full-chip field. Hashing parts
/// whose sizes are multiples of 8 in turn equals hashing them joined.
std::uint64_t fnv1a64_words(const char* bytes, std::size_t n,
                            std::uint64_t h = kFnvBasis) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, sizeof(w));
    h ^= w;
    h *= 1099511628211ull;
  }
  return fnv1a64(bytes + i, n - i, h);
}

/// The payload checksum of a frame of `kind`.
std::uint64_t payload_checksum(SnapshotKind kind, const char* bytes,
                               std::size_t n) {
  return kind == SnapshotKind::kTiledCheckpoint ? fnv1a64_words(bytes, n)
                                                : fnv1a64(bytes, n);
}

[[noreturn]] void snapshot_error(const std::string& path,
                                 const std::string& what) {
  throw IoCorruptionError("snapshot '" + path + "': " + what);
}

/// Header bytes: magic, u32 version, u32 kind, u64 payload size. The
/// payload and its u64 checksum follow.
constexpr std::size_t kFrameHeader =
    sizeof(kMagic) + 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

template <typename T>
std::string_view pod_bytes(const T& v) {
  return {reinterpret_cast<const char*>(&v), sizeof(v)};
}

std::string frame_header(SnapshotKind kind, std::uint64_t payload_bytes,
                         std::uint32_t version = kSnapshotVersion) {
  std::string h(kMagic, sizeof(kMagic));
  h.append(pod_bytes(version));
  h.append(pod_bytes(static_cast<std::uint32_t>(kind)));
  h.append(pod_bytes(payload_bytes));
  return h;
}

/// Accumulates a payload; integers and doubles are appended as raw native
/// little-endian bytes.
class Writer {
 public:
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    size(s.size());
    buffer_.append(s);
  }
  void f64_vec(const std::vector<double>& v) {
    size(v.size());
    for (const double x : v) f64(x);
  }
  void f32_vec(const std::vector<float>& v) {
    // Bulk append (native little-endian IEEE floats) — the float32 storage
    // tier for bulk table tensors.
    size(v.size());
    raw(v.data(), v.size() * sizeof(float));
  }
  void point(const geo::Point& p) {
    f64(p.x);
    f64(p.y);
  }
  void tensor(const num::SymTensor2& t) {
    f64(t.s11);
    f64(t.s22);
    f64(t.s12);
  }
  void tensor_vec(const std::vector<num::SymTensor2>& v) {
    // Bulk append: the on-disk layout (s11, s22, s12 doubles per tensor) is
    // exactly the in-memory layout, and per-element f64 calls dominate the
    // checkpoint write time on full-chip fields.
    static_assert(sizeof(num::SymTensor2) == 3 * sizeof(double));
    size(v.size());
    raw(v.data(), v.size() * sizeof(num::SymTensor2));
  }

  /// The accumulated payload bytes (for embedding a sub-encoding inside
  /// another container, e.g. the eco journal's open record).
  const std::string& payload() const { return buffer_; }

  /// Writes header + payload + checksum to `path` atomically (temp file +
  /// rename), so a crash mid-save can never leave a torn snapshot behind —
  /// either the previous file survives intact or the new one is complete.
  /// `durable=false` skips the fsync (see atomic_write_file). Returns the
  /// payload checksum — the identity the eco journal anchors replay to.
  std::uint64_t commit(const std::string& path, SnapshotKind kind,
                       bool durable = true,
                       std::uint32_t version = kSnapshotVersion) const {
    const std::uint64_t checksum = fnv1a64(buffer_);
    atomic_write_file(path,
                      {frame_header(kind, buffer_.size(), version), buffer_,
                       pod_bytes(checksum)},
                      durable);
    return checksum;
  }

 private:
  void raw(const void* p, std::size_t n) {
    if (n != 0) buffer_.append(static_cast<const char*>(p), n);
  }
  std::string buffer_;
};

/// Validated payload cursor: every get_* bounds-checks before reading, so
/// malformed payloads fail with a clear error instead of reading garbage.
/// Non-owning: decodes straight out of the caller's buffer (a MappedFile
/// for snapshot loads, a std::string for embedded payloads), which must
/// outlive the Reader.
class Reader {
 public:
  Reader(const char* payload, std::size_t payload_size, std::string path,
         std::uint32_t version = kSnapshotVersion)
      : payload_(payload),
        payload_size_(payload_size),
        path_(std::move(path)),
        version_(version) {}

  Reader(const std::string& payload, std::string path,
         std::uint32_t version = kSnapshotVersion)
      : Reader(payload.data(), payload.size(), std::move(path), version) {}

  /// Format version of the file this payload came from; decoders branch on
  /// it for sections added after version 1.
  std::uint32_t version() const { return version_; }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  double f64() { return get<double>(); }
  std::size_t size() {
    const std::uint64_t n = u64();
    // An impossible element count (larger than the remaining payload)
    // means a corrupt length field; fail before trying to allocate it.
    if (n > payload_size_ - cursor_)
      snapshot_error(path_, "malformed payload (impossible element count)");
    return static_cast<std::size_t>(n);
  }

  std::string str() {
    const std::size_t n = size();
    need(n);
    std::string s(payload_ + cursor_, n);
    cursor_ += n;
    return s;
  }
  std::vector<double> f64_vec() {
    const std::size_t n = size();
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = f64();
    return v;
  }
  std::vector<float> f32_vec() {
    // Bulk read, mirroring Writer::f32_vec.
    const std::size_t n = size();
    std::vector<float> v(n);
    const std::size_t bytes = n * sizeof(float);
    need(bytes);
    if (bytes != 0) std::memcpy(v.data(), payload_ + cursor_, bytes);
    cursor_ += bytes;
    return v;
  }
  geo::Point point() {
    geo::Point p;
    p.x = f64();
    p.y = f64();
    return p;
  }
  num::SymTensor2 tensor() {
    num::SymTensor2 t;
    t.s11 = f64();
    t.s22 = f64();
    t.s12 = f64();
    return t;
  }
  std::vector<num::SymTensor2> tensor_vec() {
    // Bulk read, mirroring Writer::tensor_vec (same byte layout).
    const std::size_t n = size();
    std::vector<num::SymTensor2> v(n);
    const std::size_t bytes = n * sizeof(num::SymTensor2);
    need(bytes);
    // n == 0 leaves v.data() null, and memcpy's pointer arguments must be
    // valid even for a zero count (UBSan enforces this).
    if (bytes != 0) std::memcpy(v.data(), payload_ + cursor_, bytes);
    cursor_ += bytes;
    return v;
  }

  void expect_end() const {
    if (cursor_ != payload_size_)
      snapshot_error(path_, "malformed payload (trailing bytes)");
  }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, payload_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (cursor_ + n > payload_size_)
      snapshot_error(path_, "malformed payload (truncated field)");
  }

  const char* payload_ = nullptr;
  std::size_t payload_size_ = 0;
  std::string path_;
  std::uint32_t version_ = kSnapshotVersion;
  std::size_t cursor_ = 0;
};

/// A validated, still-open snapshot file: `reader` decodes directly out of
/// the mapping, so this object must stay alive until decoding finishes.
struct OpenedSnapshot {
  MappedFile file;
  SnapshotInfo info;
  Reader reader;
};

/// A frame whose header and checksum validated: its header fields, its
/// payload, and its length in bytes (header + payload + checksum).
struct Frame {
  SnapshotInfo info;
  const char* payload = nullptr;
  std::size_t bytes = 0;
};

/// Validates the frame at the start of `bytes` (`avail` bytes readable):
/// magic, version, size, and checksum. `whole` requires the frame to fill
/// all `avail` bytes, as a snapshot file's single frame must.
Frame parse_frame(const char* bytes, std::size_t avail, bool whole,
                  const std::string& path) {
  if (avail < kFrameHeader + sizeof(std::uint64_t))
    snapshot_error(path, "truncated file (shorter than the header)");
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0)
    snapshot_error(path, "not a tsvstress snapshot (bad magic)");

  Frame frame;
  SnapshotInfo& info = frame.info;
  std::size_t off = sizeof(kMagic);
  const auto read_pod = [&](auto& v) {
    std::memcpy(&v, bytes + off, sizeof(v));
    off += sizeof(v);
  };
  std::uint32_t kind_u = 0;
  read_pod(info.version);
  read_pod(kind_u);
  read_pod(info.payload_bytes);
  info.kind = static_cast<SnapshotKind>(kind_u);

  if (info.version < kMinSnapshotVersion ||
      info.version > kSnapshotVersion) {
    std::ostringstream os;
    os << "format version mismatch: file has version " << info.version
       << ", this build reads versions " << kMinSnapshotVersion << ".."
       << kSnapshotVersion;
    snapshot_error(path, os.str());
  }
  const std::size_t room = avail - off - sizeof(std::uint64_t);
  if (whole ? info.payload_bytes != room : info.payload_bytes > room)
    snapshot_error(path, "truncated file (payload size does not match)");

  frame.payload = bytes + off;
  const std::size_t payload_bytes =
      static_cast<std::size_t>(info.payload_bytes);
  frame.bytes = off + payload_bytes + sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, frame.payload + payload_bytes, sizeof(stored));
  info.checksum = stored;
  const std::uint64_t computed =
      payload_checksum(info.kind, frame.payload, payload_bytes);
  if (computed != stored) {
    std::ostringstream os;
    os << "checksum mismatch (file is corrupt): stored " << std::hex << stored
       << ", computed " << computed;
    snapshot_error(path, os.str());
  }
  return frame;
}

/// Maps the file and validates its frame. The returned reader points into
/// the mapping — no heap copy of the payload.
OpenedSnapshot read_file(const std::string& path) {
  MappedFile file(path);
  const Frame frame = parse_frame(file.data(), file.size(), true, path);
  Reader reader(frame.payload,
                static_cast<std::size_t>(frame.info.payload_bytes), path,
                frame.info.version);
  return OpenedSnapshot{std::move(file), frame.info, std::move(reader)};
}

OpenedSnapshot open_kind(const std::string& path, SnapshotKind expected) {
  OpenedSnapshot opened = read_file(path);
  if (opened.info.kind != expected) {
    std::ostringstream os;
    os << "kind mismatch: expected " << to_string(expected) << ", file holds "
       << to_string(opened.info.kind);
    snapshot_error(path, os.str());
  }
  return opened;
}

// --- shared sub-encoders -------------------------------------------------

void put_material(Writer& w, const mat::Material& m) {
  w.str(m.name);
  w.f64(m.youngs_modulus);
  w.f64(m.poisson_ratio);
  w.f64(m.cte);
}

mat::Material get_material(Reader& r) {
  mat::Material m;
  m.name = r.str();
  m.youngs_modulus = r.f64();
  m.poisson_ratio = r.f64();
  m.cte = r.f64();
  return m;
}

void put_structure(Writer& w, const tsvlib::TsvStructure& s) {
  w.f64(s.body_radius);
  w.f64(s.liner_thickness);
  w.f64(s.landing_pad);
  put_material(w, s.body);
  put_material(w, s.liner);
  put_material(w, s.substrate);
}

tsvlib::TsvStructure get_structure(Reader& r) {
  tsvlib::TsvStructure s;
  s.body_radius = r.f64();
  s.liner_thickness = r.f64();
  s.landing_pad = r.f64();
  s.body = get_material(r);
  s.liner = get_material(r);
  s.substrate = get_material(r);
  s.validate();
  return s;
}

void put_radial_table(Writer& w, const core::RadialStressTable& t) {
  w.f64(t.max_radius());
  w.f64_vec(t.srr());
  w.f64_vec(t.stt());
}

core::RadialStressTable get_radial_table(Reader& r) {
  const double max_radius = r.f64();
  std::vector<double> srr = r.f64_vec();
  std::vector<double> stt = r.f64_vec();
  return core::RadialStressTable(std::move(srr), std::move(stt), max_radius);
}

void put_pair_tables(Writer& w,
                     const std::vector<ana::PairStressTable::Data>& tables,
                     std::uint32_t version = kSnapshotVersion) {
  // Format v3: the float32 SoA samples are written verbatim (they ARE the
  // table's storage), so save -> load -> save round-trips bitwise and the
  // section is ~6x smaller than the v2 f64 tensor layout. The compat
  // writers (version < 3) widen the floats back into the old f64 tensor
  // layout; re-narrowing on load restores the identical bits.
  w.size(tables.size());
  for (const ana::PairStressTable::Data& t : tables) {
    w.f64(t.pitch);
    w.f64(t.r_max);
    w.size(t.n_theta);
    for (const auto& seg : t.segments) {
      w.f64(seg.r0);
      w.f64(seg.r1);
      w.size(seg.nr);
      if (version >= 3) {
        w.f32_vec(seg.s11);
        w.f32_vec(seg.s22);
        w.f32_vec(seg.s12);
      } else {
        std::vector<num::SymTensor2> values(seg.s11.size());
        for (std::size_t k = 0; k < values.size(); ++k) {
          values[k] = num::SymTensor2{static_cast<double>(seg.s11[k]),
                                      static_cast<double>(seg.s22[k]),
                                      static_cast<double>(seg.s12[k])};
        }
        w.tensor_vec(values);
      }
    }
  }
}

std::vector<ana::PairStressTable::Data> get_pair_tables(Reader& r) {
  const std::size_t count = r.size();
  std::vector<ana::PairStressTable::Data> tables(count);
  for (ana::PairStressTable::Data& t : tables) {
    t.pitch = r.f64();
    t.r_max = r.f64();
    t.n_theta = r.size();
    for (auto& seg : t.segments) {
      seg.r0 = r.f64();
      seg.r1 = r.f64();
      seg.nr = r.size();
      if (r.version() >= 3) {
        seg.s11 = r.f32_vec();
        seg.s22 = r.f32_vec();
        seg.s12 = r.f32_vec();
      } else {
        // v1/v2 payloads stored f64 AoS tensors; narrow them into the
        // float tier exactly like a fresh table build would (the same
        // static_cast, so upgraded and cold tables stay bitwise equal).
        const std::vector<num::SymTensor2> values = r.tensor_vec();
        seg.s11.reserve(values.size());
        seg.s22.reserve(values.size());
        seg.s12.reserve(values.size());
        for (const num::SymTensor2& v : values) {
          seg.s11.push_back(static_cast<float>(v.s11));
          seg.s22.push_back(static_cast<float>(v.s22));
          seg.s12.push_back(static_cast<float>(v.s12));
        }
      }
    }
  }
  return tables;
}

void put_surrogate(Writer& w, const ana::PairSurrogate& surrogate) {
  const ana::PairSurrogate::Data d = surrogate.to_data();
  w.f64(d.pitch_min);
  w.f64(d.pitch_max);
  w.f64(d.r_max);
  w.size(d.pitch_order);
  w.size(d.segments.size());
  for (const auto& seg : d.segments) {
    w.u8(seg.inverse_radial ? 1 : 0);
    w.f64(seg.r0);
    w.f64(seg.r1);
    w.size(seg.nr);
    w.size(seg.nx);
    w.f64_vec(seg.coeffs);
  }
  const ana::SurrogateCertificate& c = d.certificate;
  w.f64(c.pitch_min);
  w.f64(c.pitch_max);
  w.f64(c.r_max);
  w.u64(c.coefficient_count);
  w.u64(c.sample_count);
  w.f64(c.field_scale);
  w.f64(c.max_abs_error);
  w.f64(c.certified_rel_bound);
}

ana::PairSurrogate get_surrogate(Reader& r) {
  ana::PairSurrogate::Data d;
  d.pitch_min = r.f64();
  d.pitch_max = r.f64();
  d.r_max = r.f64();
  d.pitch_order = r.size();
  d.segments.resize(r.size());
  for (auto& seg : d.segments) {
    seg.inverse_radial = r.u8() != 0;
    seg.r0 = r.f64();
    seg.r1 = r.f64();
    seg.nr = r.size();
    seg.nx = r.size();
    seg.coeffs = r.f64_vec();
  }
  ana::SurrogateCertificate& c = d.certificate;
  c.pitch_min = r.f64();
  c.pitch_max = r.f64();
  c.r_max = r.f64();
  c.coefficient_count = r.u64();
  c.sample_count = r.u64();
  c.field_scale = r.f64();
  c.max_abs_error = r.f64();
  c.certified_rel_bound = r.f64();
  return ana::PairSurrogate(std::move(d));
}

}  // namespace

const char* to_string(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kRadialTable:
      return "radial-table";
    case SnapshotKind::kPairTableCache:
      return "pair-table-cache";
    case SnapshotKind::kPlacement:
      return "placement";
    case SnapshotKind::kEngineState:
      return "engine-state";
    case SnapshotKind::kTiledCheckpoint:
      return "tiled-checkpoint";
    case SnapshotKind::kSurrogate:
      return "surrogate";
  }
  return "unknown";
}

SnapshotInfo read_snapshot_info(const std::string& path) {
  return read_file(path).info;
}

void save_radial_table(const std::string& path,
                       const core::RadialStressTable& table) {
  Writer w;
  put_radial_table(w, table);
  w.commit(path, SnapshotKind::kRadialTable);
}

core::RadialStressTable load_radial_table(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kRadialTable);
  Reader& r = opened.reader;
  core::RadialStressTable table = get_radial_table(r);
  r.expect_end();
  return table;
}

std::size_t save_pair_table_cache(const std::string& path,
                                  const ana::InteractiveStressModel& model) {
  Writer w;
  const std::vector<ana::PairStressTable::Data> tables =
      model.export_table_cache();
  put_pair_tables(w, tables);
  w.commit(path, SnapshotKind::kPairTableCache);
  return tables.size();
}

std::size_t load_pair_table_cache(const std::string& path,
                                  const ana::InteractiveStressModel& model) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kPairTableCache);
  Reader& r = opened.reader;
  std::vector<ana::PairStressTable::Data> tables = get_pair_tables(r);
  r.expect_end();
  return model.import_table_cache(std::move(tables));
}

void save_surrogate(const std::string& path,
                    const ana::PairSurrogate& surrogate) {
  Writer w;
  put_surrogate(w, surrogate);
  w.commit(path, SnapshotKind::kSurrogate);
  // Fault harness: the atomic commit rules out torn writes, so model
  // *external* bit rot (disk/filesystem damage after a successful save) by
  // flipping one payload byte. Loads must reject the file via the checksum
  // and degrade to the exact series path, never evaluate damaged
  // coefficients.
  if (fault::should_fire(fault::Site::kSurrogateCorrupt)) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = std::move(buf).str();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

ana::PairSurrogate load_surrogate(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kSurrogate);
  Reader& r = opened.reader;
  ana::PairSurrogate surrogate = get_surrogate(r);
  r.expect_end();
  return surrogate;
}

std::optional<ana::PairSurrogate> try_load_surrogate(const std::string& path) {
  try {
    return load_surrogate(path);
  } catch (const std::exception&) {
    // Missing, truncated, corrupt, wrong kind, or structurally invalid:
    // the exact series path is always available, so a surrogate snapshot is
    // pure opportunism — skip it rather than fail the run.
    return std::nullopt;
  }
}

void save_placement(const std::string& path, const tsvlib::Placement& p) {
  Writer w;
  put_structure(w, p.structure());
  w.size(p.size());
  for (const geo::Point& c : p.centers()) w.point(c);
  w.commit(path, SnapshotKind::kPlacement);
}

tsvlib::Placement load_placement(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kPlacement);
  Reader& r = opened.reader;
  tsvlib::TsvStructure structure = get_structure(r);
  const std::size_t n = r.size();
  std::vector<geo::Point> centers(n);
  for (geo::Point& c : centers) c = r.point();
  r.expect_end();
  return tsvlib::Placement(structure, std::move(centers));
}

std::string encode_placement(const tsvlib::Placement& p) {
  Writer w;
  put_structure(w, p.structure());
  w.size(p.size());
  for (const geo::Point& c : p.centers()) w.point(c);
  return w.payload();
}

tsvlib::Placement decode_placement(const std::string& bytes) {
  Reader r(bytes, "<embedded placement>");
  tsvlib::TsvStructure structure = get_structure(r);
  const std::size_t n = r.size();
  std::vector<geo::Point> centers(n);
  for (geo::Point& c : centers) c = r.point();
  r.expect_end();
  return tsvlib::Placement(structure, std::move(centers));
}

namespace {

/// Version 3 engine-state payloads carry the option block of the Stage II
/// far-field aggregate that version 4 removed: a routing flag, a tolerance
/// and eight tiling/certification settings. Writes it at the removed
/// feature's defaults with the flag off, so a v3 reader restores a plain
/// direct-path engine.
void put_v3_far_field_block(Writer& w) {
  w.u8(0);       // use_far_field
  w.f64(1e-2);   // tolerance
  w.f64(100.0);  // cell_size
  w.f64(1.0);    // tile_spacing
  w.f64(6.0);    // blend_r0
  w.f64(10.0);   // blend_r1
  w.f64(1.5);    // edge_width
  w.size(48);    // cert_max_clusters
  w.size(24);    // cert_samples_per_cluster
  w.f64(1.5);    // cert_margin
}

/// Reads and discards the v3 block. A payload saved with the far field on
/// is refused: its Stage II field holds tile-approximated sums that exact
/// incremental deltas would silently mix with.
void skip_v3_far_field_block(Reader& r, const std::string& path) {
  if (r.u8() != 0) {
    snapshot_error(path,
                   "engine state was saved with the hierarchical far-field "
                   "aggregate enabled, which this build no longer supports");
  }
  for (int i = 0; i < 6; ++i) r.f64();  // tolerance .. edge_width
  r.size();                             // cert_max_clusters
  r.size();                             // cert_samples_per_cluster
  r.f64();                              // cert_margin
}

std::uint64_t save_engine_state_as(const std::string& path,
                                   const core::IncrementalEngine& engine,
                                   std::uint32_t version) {
  const auto* radial =
      dynamic_cast<const core::RadialStressTable*>(&engine.table());
  TSV_REQUIRE(radial != nullptr,
              "engine snapshots require a RadialStressTable Stage-I field");
  const core::IncrementalEngine::State state = engine.state();
  const core::IncrementalOptions& opt = state.options;

  Writer w;
  put_structure(w, state.structure);
  w.point(state.grid_box.lo);
  w.point(state.grid_box.hi);
  w.size(state.grid_nx);
  w.size(state.grid_ny);
  w.f64(opt.stage1.influence_radius);
  w.size(opt.stage1.num_threads);
  w.f64(opt.stage2.pair_pitch_cutoff);
  w.f64(opt.stage2.influence_radius);
  w.u8(opt.stage2.use_lookup_table ? 1 : 0);
  w.f64(opt.stage2.pitch_quant_step);
  w.u8(opt.stage2.allow_surrogate ? 1 : 0);
  w.f64(opt.stage2.surrogate_tolerance);
  w.size(opt.stage2.num_threads);
  if (version == 3) put_v3_far_field_block(w);
  w.u8(opt.enable_interactive ? 1 : 0);
  w.size(opt.num_threads);

  // Stage-II characterization: k_hat plus the response options, enough to
  // re-derive the InteractiveStressModel exactly.
  const std::shared_ptr<const ana::InteractiveStressModel> model =
      engine.model();
  w.f64(model != nullptr ? model->k_hat() : 0.0);
  const ana::InclusionResponseOptions ropt =
      model != nullptr ? model->response().options()
                       : ana::InclusionResponseOptions{};
  w.i32(ropt.max_basis_power);
  w.i32(ropt.series_order);
  w.i32(ropt.collocation_points);

  w.size(state.centers.size());
  for (const geo::Point& c : state.centers) w.point(c);
  for (const std::uint8_t a : state.active) w.u8(a);
  w.tensor_vec(state.stage1);
  w.tensor_vec(state.stage2);

  put_radial_table(w, *radial);
  put_pair_tables(w,
                  model != nullptr
                      ? model->export_table_cache()
                      : std::vector<ana::PairStressTable::Data>{},
                  version);

  // Optional embedded surrogate (format version 2): ECO warm starts reuse
  // the fitted-and-certified coefficients instead of refitting per process.
  if (version >= 2) {
    const std::shared_ptr<const ana::PairSurrogate> surrogate =
        model != nullptr ? model->surrogate() : nullptr;
    w.u8(surrogate != nullptr ? 1 : 0);
    if (surrogate != nullptr) put_surrogate(w, *surrogate);
  }

  return w.commit(path, SnapshotKind::kEngineState, /*durable=*/true, version);
}

}  // namespace

std::uint64_t save_engine_state(const std::string& path,
                                const core::IncrementalEngine& engine) {
  return save_engine_state_as(path, engine, kSnapshotVersion);
}

std::uint64_t save_engine_state_compat(const std::string& path,
                                       const core::IncrementalEngine& engine,
                                       std::uint32_t version) {
  TSV_REQUIRE(version >= kMinSnapshotVersion && version <= kSnapshotVersion,
              "engine snapshot: unsupported compat version");
  return save_engine_state_as(path, engine, version);
}

core::IncrementalEngine load_engine_state(const std::string& path) {
  OpenedSnapshot opened = open_kind(path, SnapshotKind::kEngineState);
  Reader& r = opened.reader;
  core::IncrementalEngine::State state;
  state.structure = get_structure(r);
  const geo::Point lo = r.point();
  const geo::Point hi = r.point();
  state.grid_box = geo::Box{lo, hi};
  state.grid_nx = r.size();
  state.grid_ny = r.size();
  core::IncrementalOptions& opt = state.options;
  opt.stage1.influence_radius = r.f64();
  opt.stage1.num_threads = r.size();
  opt.stage2.pair_pitch_cutoff = r.f64();
  opt.stage2.influence_radius = r.f64();
  opt.stage2.use_lookup_table = r.u8() != 0;
  opt.stage2.pitch_quant_step = r.f64();
  opt.stage2.allow_surrogate = r.u8() != 0;
  opt.stage2.surrogate_tolerance = r.f64();
  opt.stage2.num_threads = r.size();
  if (r.version() == 3) skip_v3_far_field_block(r, path);
  opt.enable_interactive = r.u8() != 0;
  opt.num_threads = r.size();

  const double k_hat = r.f64();
  ana::InclusionResponseOptions ropt;
  ropt.max_basis_power = r.i32();
  ropt.series_order = r.i32();
  ropt.collocation_points = r.i32();

  const std::size_t slots = r.size();
  state.centers.resize(slots);
  for (geo::Point& c : state.centers) c = r.point();
  state.active.resize(slots);
  for (std::uint8_t& a : state.active) a = r.u8();
  state.stage1 = r.tensor_vec();
  state.stage2 = r.tensor_vec();

  auto table =
      std::make_shared<const core::RadialStressTable>(get_radial_table(r));
  std::vector<ana::PairStressTable::Data> pair_tables = get_pair_tables(r);
  // Version-1 payloads end at the pair tables (no surrogate section): the
  // model comes back surrogate-free and callers re-fit on demand.
  std::shared_ptr<const ana::PairSurrogate> surrogate;
  if (r.version() >= 2 && r.u8() != 0)
    surrogate = std::make_shared<const ana::PairSurrogate>(get_surrogate(r));
  r.expect_end();

  std::shared_ptr<const ana::InteractiveStressModel> model;
  if (opt.enable_interactive) {
    // Re-characterize the inclusion response (cheap relative to the table
    // builds the warmed cache now skips) and restore the cache.
    model = std::make_shared<const ana::InteractiveStressModel>(
        std::make_shared<const ana::InclusionResponse>(state.structure, ropt),
        k_hat);
    model->import_table_cache(std::move(pair_tables));
    // Reattach the embedded surrogate; its persisted certificate still
    // gates use per evaluation (surrogate_for checks the bound and domain).
    if (surrogate != nullptr) model->attach_surrogate(std::move(surrogate));
  }
  return core::IncrementalEngine::restore(std::move(state), std::move(table),
                                          std::move(model));
}

namespace {

/// The parts of one checkpoint record holding the tiles of `cp` from tile
/// `first_tile` on, whose fields start at element `first_point`. The bulk
/// fields are views of cp's vectors, so the record is written without
/// copying them; the other parts view this object's members, so it is
/// neither copied nor moved.
struct CheckpointRecord {
  std::string head;  ///< frame header + the four leading u64 fields
  std::uint64_t interactive_count = 0;
  std::uint64_t checksum = 0;
  std::vector<std::string_view> parts;

  CheckpointRecord(const CheckpointRecord&) = delete;
  CheckpointRecord& operator=(const CheckpointRecord&) = delete;
  CheckpointRecord(const core::TiledCheckpoint& cp, std::size_t first_tile,
                   std::size_t first_point) {
    static_assert(sizeof(num::SymTensor2) == 3 * sizeof(double));
    const auto tensors = [](const std::vector<num::SymTensor2>& v,
                            std::size_t from) {
      from = std::min(from, v.size());
      return std::string_view(reinterpret_cast<const char*>(v.data() + from),
                              (v.size() - from) * sizeof(num::SymTensor2));
    };
    const std::string_view stress = tensors(cp.stress, first_point);
    const std::string_view interactive = tensors(cp.interactive, first_point);
    std::string fields;
    for (const std::uint64_t v :
         {cp.fingerprint, std::uint64_t{first_tile},
          std::uint64_t{cp.tiles_done - first_tile},
          std::uint64_t{stress.size() / sizeof(num::SymTensor2)}})
      fields.append(pod_bytes(v));
    interactive_count = interactive.size() / sizeof(num::SymTensor2);
    const std::string_view count = pod_bytes(interactive_count);
    checksum = kFnvBasis;
    for (const std::string_view part : {std::string_view(fields), stress,
                                        count, interactive})
      checksum = fnv1a64_words(part.data(), part.size(), checksum);
    head = frame_header(SnapshotKind::kTiledCheckpoint,
                        fields.size() + stress.size() + count.size() +
                            interactive.size()) +
           fields;
    parts = {head, stress, count, interactive, pod_bytes(checksum)};
  }
};

}  // namespace

void save_tiled_checkpoint(const std::string& path,
                           const core::TiledCheckpoint& cp) {
  // Not fsynced: a checkpoint defends against a killed run (the page cache
  // survives that), its reader tolerates a damaged file, and the fsync wait
  // would dominate the checkpoint overhead on full-chip fields.
  atomic_write_file(path, CheckpointRecord(cp, 0, 0).parts,
                    /*durable=*/false);
  // Fault harness: the atomic write above makes torn writes from crashes
  // impossible, so simulate *external* damage (disk/filesystem corruption
  // after a successful save) by chopping the finished file in half. Resume
  // must survive this by discarding the checkpoint, not by crashing.
  if (fault::should_fire(fault::Site::kCheckpointTruncate))
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
}

core::TiledCheckpoint load_tiled_checkpoint(const std::string& path) {
  const MappedFile file(path);
  core::TiledCheckpoint cp;
  std::size_t records = 0;
  for (std::size_t off = 0; off < file.size() || records == 0; ++records) {
    try {
      const Frame frame =
          parse_frame(file.data() + off, file.size() - off, false, path);
      if (frame.info.kind != SnapshotKind::kTiledCheckpoint)
        snapshot_error(path, std::string("kind mismatch: expected ") +
                                 to_string(SnapshotKind::kTiledCheckpoint) +
                                 ", file holds " + to_string(frame.info.kind));
      Reader r(frame.payload,
               static_cast<std::size_t>(frame.info.payload_bytes), path);
      const std::uint64_t fingerprint = r.u64();
      const std::uint64_t first_tile = r.u64();
      const std::uint64_t tiles = r.u64();
      if (records == 0) cp.fingerprint = fingerprint;
      if (fingerprint != cp.fingerprint || first_tile != cp.tiles_done)
        snapshot_error(path, "record does not continue the checkpoint");
      std::vector<num::SymTensor2> stress = r.tensor_vec();
      std::vector<num::SymTensor2> interactive = r.tensor_vec();
      r.expect_end();
      cp.tiles_done += tiles;
      cp.stress.insert(cp.stress.end(), stress.begin(), stress.end());
      cp.interactive.insert(cp.interactive.end(), interactive.begin(),
                            interactive.end());
      off += frame.bytes;
    } catch (const IoCorruptionError&) {
      // A torn or damaged record ends the log; the records before it stand.
      if (records == 0) throw;
      break;
    }
  }
  return cp;
}

std::optional<core::TiledCheckpoint> try_load_tiled_checkpoint(
    const std::string& path) {
  try {
    return load_tiled_checkpoint(path);
  } catch (const std::exception&) {
    // Missing, truncated, corrupt, or wrong kind: resume is impossible,
    // restarting from scratch is always correct.
    return std::nullopt;
  }
}

core::TiledStats evaluate_with_checkpoint(const core::TiledEvaluator& evaluator,
                                          const geo::SampleGrid& grid,
                                          const core::TileConsumer& consume,
                                          const std::string& checkpoint_path,
                                          std::size_t every_tiles) {
  std::optional<core::TiledCheckpoint> resume =
      try_load_tiled_checkpoint(checkpoint_path);
  // A checkpoint from a different placement/grid/tiling must not be
  // resumed; treat it like a corrupt one and start clean.
  if (resume && resume->fingerprint != evaluator.fingerprint(grid))
    resume.reset();

  core::CheckpointConfig config;
  config.every_tiles = every_tiles;
  // Append-only: each write adds one record with the tiles finished since
  // the last one. The first write of a run, and the first after a failed
  // one, writes the file whole instead (atomically), which also drops a
  // torn tail a killed or failed writer left behind.
  std::size_t tiles_on_disk = 0;
  std::size_t points_on_disk = 0;
  config.writer = [&](const core::TiledCheckpoint& cp) {
    try {
      if (tiles_on_disk == 0)
        save_tiled_checkpoint(checkpoint_path, cp);
      else
        append_file(checkpoint_path,
                    CheckpointRecord(cp, tiles_on_disk, points_on_disk).parts);
      tiles_on_disk = cp.tiles_done;
      points_on_disk = cp.stress.size();
    } catch (const std::exception& e) {
      // Checkpoints are insurance, not output: a failed write (disk full,
      // permissions) must not kill the run it is protecting. The records
      // before a failed append still load, and so does the previous file
      // after a failed whole write.
      tiles_on_disk = 0;
      points_on_disk = 0;
      std::fprintf(stderr, "warning: checkpoint write failed: %s\n", e.what());
    }
  };
  config.resume = resume ? &*resume : nullptr;
  core::TiledStats stats = evaluator.evaluate(grid, consume, config);
  std::remove(checkpoint_path.c_str());
  return stats;
}

}  // namespace tsv::io
