// In-memory entity collection: a named, columnar table of string records.
//
// An entity is one row; its EntityId is its row position, which all blocking
// and matching indices use as the record identifier (the paper's e_id).
//
// Storage layout: one column per attribute, each column a dense vector of
// uint32 dictionary codes plus a per-column Dictionary interning the
// distinct strings into a stable arena. Reads hand out string_views into
// the arena — valid for the table's lifetime, no copies. Tables are
// immutable once built; loads go through TableBuilder.

#ifndef QUERYER_STORAGE_TABLE_H_
#define QUERYER_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/schema.h"

namespace queryer {

/// Row position within a table; the canonical entity identifier.
using EntityId = std::uint32_t;

/// \brief Borrowed view of one column's dictionary-code vector. The codes
/// may live in a heap vector (tables built by TableBuilder) or directly in
/// a memory-mapped snapshot section (tables loaded by the persist tier) —
/// consumers iterate either the same way.
class CodeSpan {
 public:
  CodeSpan(const DictCode* data, std::size_t size)
      : data_(data), size_(size) {}

  const DictCode* data() const { return data_; }
  std::size_t size() const { return size_; }
  DictCode operator[](std::size_t i) const { return data_[i]; }
  const DictCode* begin() const { return data_; }
  const DictCode* end() const { return data_ + size_; }

 private:
  const DictCode* data_;
  std::size_t size_;
};

/// \brief Read view of one column: dictionary codes plus their dictionary.
///
/// The view borrows from the Table; it is cheap to copy and valid for the
/// table's lifetime.
class ColumnView {
 public:
  std::size_t size() const { return size_; }
  DictCode code(EntityId id) const { return codes_[id]; }
  std::string_view value(EntityId id) const {
    return dictionary_->value(codes_[id]);
  }
  CodeSpan codes() const { return CodeSpan(codes_, size_); }
  const Dictionary& dictionary() const { return *dictionary_; }

 private:
  friend class Table;
  ColumnView(const DictCode* codes, std::size_t size,
             const Dictionary* dictionary)
      : codes_(codes), size_(size), dictionary_(dictionary) {}

  const DictCode* codes_;
  std::size_t size_;
  const Dictionary* dictionary_;
};

/// \brief A dirty (or clean) entity collection. Columnar and immutable;
/// build one with TableBuilder.
class Table {
 public:
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_attributes() const { return schema_.num_attributes(); }

  /// The value of one attribute of one entity, viewing into the column
  /// dictionary's storage (heap arena or snapshot mapping). Valid for the
  /// table's lifetime.
  std::string_view ValueAt(EntityId id, std::size_t attribute) const {
    const Column& c = columns_[attribute];
    return c.dictionary.value(c.codes[id]);
  }

  /// The dictionary code of one attribute of one entity. Equal codes imply
  /// byte-equal strings; unequal codes imply nothing under the engine's
  /// case-insensitive / numeric comparison semantics.
  DictCode CodeAt(EntityId id, std::size_t attribute) const {
    return columns_[attribute].codes[id];
  }

  ColumnView column(std::size_t attribute) const {
    const Column& c = columns_[attribute];
    return ColumnView(c.codes, num_rows_, &c.dictionary);
  }

  const Dictionary& dictionary(std::size_t attribute) const {
    return columns_[attribute].dictionary;
  }

 private:
  friend class TableBuilder;
  // The persist tier builds tables whose code vectors and dictionary
  // string bytes point into a memory-mapped snapshot (owned_codes stays
  // empty, mapping_ pins the file mapping).
  friend class TableSnapshotIO;

  struct Column {
    /// Heap storage for tables built row by row; empty for mapped tables.
    std::vector<DictCode> owned_codes;
    /// The code vector actually read (owned_codes.data() or a pointer into
    /// the snapshot mapping). Set when the table is frozen.
    const DictCode* codes = nullptr;
    Dictionary dictionary;
  };

  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        columns_(schema_.num_attributes()) {}

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  std::size_t num_rows_ = 0;
  /// Keeps the snapshot mapping alive for mapped tables; null otherwise.
  std::shared_ptr<const void> mapping_;
};

using TablePtr = std::shared_ptr<Table>;

/// \brief Append-only loader for Table. AddRow encodes each value through
/// the per-column dictionaries; Build() hands the finished table out and
/// leaves the builder empty.
class TableBuilder {
 public:
  TableBuilder(std::string name, Schema schema)
      : table_(new Table(std::move(name), std::move(schema))) {}

  void Reserve(std::size_t rows);

  /// Appends a row; fails if the arity does not match the schema.
  Status AddRow(const std::vector<std::string>& values);

  std::size_t num_rows() const { return table_->num_rows(); }

  /// Finalizes and returns the table. The builder must not be used after.
  TablePtr Build() { return std::move(table_); }

 private:
  TablePtr table_;
};

/// \brief Where one column of a joined tuple lives: attribute `attribute`
/// of the tuple's `table`-th entity.
struct ColumnSource {
  std::uint32_t table;
  std::uint32_t attribute;
};

/// \brief Uniform read access to one tuple for expression evaluation,
/// whether the tuple lives as owned strings, as a row of a columnar Table,
/// as one row of each of several tables (a join row), or as a single column
/// value (TablePredicate's per-dictionary-code truth table).
class RowRef {
 public:
  /// Implicit: a materialized row's owned values.
  RowRef(const std::vector<std::string>& values)  // NOLINT(runtime/explicit)
      : kind_(Kind::kOwned), owned_(&values) {}

  RowRef(const Table& table, EntityId id)
      : kind_(Kind::kTable), table_(&table), id_(id) {}

  /// A join row: entity `ids[t]` of `tables[t]` for each of its tables,
  /// with column c read from `columns[c]`.
  RowRef(const Table* const* tables, const ColumnSource* columns,
         const EntityId* ids)
      : kind_(Kind::kJoined), tables_(tables), columns_(columns), ids_(ids) {}

  /// A virtual tuple whose only populated column is `column` with value
  /// `value`; reading any other column is undefined. Used to evaluate a
  /// single-column predicate once per distinct dictionary value.
  static RowRef SingleColumn(std::size_t column, std::string_view value) {
    RowRef ref;
    ref.kind_ = Kind::kSingle;
    ref.single_column_ = column;
    ref.single_value_ = value;
    return ref;
  }

  std::string_view Get(std::size_t column) const {
    switch (kind_) {
      case Kind::kOwned:
        return (*owned_)[column];
      case Kind::kTable:
        return table_->ValueAt(id_, column);
      case Kind::kJoined: {
        const ColumnSource& source = columns_[column];
        return tables_[source.table]->ValueAt(ids_[source.table],
                                              source.attribute);
      }
      case Kind::kSingle:
      default:
        return single_value_;
    }
  }

 private:
  enum class Kind : std::uint8_t { kOwned, kTable, kJoined, kSingle };

  RowRef() = default;

  Kind kind_ = Kind::kSingle;
  const std::vector<std::string>* owned_ = nullptr;
  const Table* table_ = nullptr;
  EntityId id_ = 0;
  const Table* const* tables_ = nullptr;
  const ColumnSource* columns_ = nullptr;
  const EntityId* ids_ = nullptr;
  std::size_t single_column_ = 0;
  std::string_view single_value_;
};

}  // namespace queryer

#endif  // QUERYER_STORAGE_TABLE_H_
