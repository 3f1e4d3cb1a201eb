"""The flagship pipeline: web pages → features → tiles → MVT.

Ray-Data lifecycle:

    read_parquet(pages)                                [stream]
      → map_batches(PageFeatureExtractor, actors)      [ST1]
      → map_batches(GeomMap)                           [A1 explode +
                                                        clip/simplify/scale]
      → map_batches(add_partition_key)                 [exchange key]
      → groupby("pk").map_groups(TileAssembler)        [A3-A5 + encode]
      → write_parquet / iter_batches / a tile sink     [sink]

Everything streams; the only all-to-all exchange is the groupby on the
macro-block partition key. The three stages after extraction are the
tile chain (pipelines/chain.py) the OSM and incremental pipelines run
too.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..config import Config, default_config
from ..stages.extract import PageFeatureExtractor
from ..stages.salted import data_num_partitions, dir_input_bytes
from . import chain


def _extractor_pool() -> tuple[int, int]:
    """(actors, CPUs per actor) of the default extractor pool.

    A fixed pool that holds every CPU leaves none for the read,
    geometry and exchange tasks, and the build waits forever; so the
    pool keeps at least one CPU free: max(2, n//2) actors at n >= 4
    CPUs, n-1 below that. On one CPU there is nothing to keep free, so
    the single actor reserves no CPU and shares the core with the
    tasks."""
    import ray
    n = int(ray.cluster_resources().get("CPU", 8))
    if n <= 1:
        return 1, 0
    return min(max(2, n // 2), n - 1), 1


class _WarcPageDeriver:
    """WARC → pages adapter (actor-pool stage): derive text from html
    (the byte-identity-defining extraction, profile.py:extract_text)
    and predict lang with the LangId profiles — a raw crawl carries
    neither column, exactly the north-star's stateful-parser stage."""

    def __init__(self):
        from ..ops.text import LangId
        self.langid = LangId()

    def __call__(self, b):
        import pyarrow as pa

        from ..profile import extract_text
        texts = [extract_text(h) for h in b.column("html").to_pylist()]
        langs, _ = self.langid.predict(texts)
        return b.append_column("text", pa.array(texts, pa.string())) \
                .append_column("lang", pa.array(langs, pa.string()))


def feature_dataset(pages_dir: str, config: Config | None = None,
                    concurrency: int | tuple | None = None,
                    batch_size: int = 2048,
                    with_joins: bool = False,
                    profile_factory=None,
                    url_filter: set[str] | None = None) -> ray.data.Dataset:
    """url_filter restricts extraction to a url set (the incremental
    pipeline's delta path) — applied between read and extractor so the
    SAME wiring (columns, extractor kwargs, profile, WARC derivation)
    serves both the full and the filtered run; non-matching pages never
    reach the extractor."""
    config = config or default_config()
    actor_cpus = 1
    if concurrency is None:
        concurrency, actor_cpus = _extractor_pool()
    known = {l.name for l in config.layers}
    kwargs = {"known_layers": known}
    if profile_factory is not None:
        kwargs["profile_factory"] = profile_factory
    if with_joins:
        from ..profile import JoinedWebProfile
        from ..sources.regions import region_table
        kwargs["profile_factory"] = JoinedWebProfile
        kwargs["regions_ref"] = ray.put(region_table())
    if pages_dir.endswith((".warc", ".warc.gz")):
        from ..sources.warc import read_warc
        # autoscaling pool (min 1): a second FIXED pool next to the
        # extractor's would pin every CPU on small clusters and starve
        # the task-based read/shuffle stages (observed as a deadlock at
        # num_cpus=4 — two 2-actor pools left zero CPUs for the WARC
        # range-read tasks feeding them)
        derive_pool = (1, concurrency if isinstance(concurrency, int)
                       else concurrency[-1])
        ds = read_warc(pages_dir).map_batches(
            _WarcPageDeriver, batch_format="pyarrow",
            batch_size=batch_size, concurrency=derive_pool)
    else:
        ds = ray.data.read_parquet(pages_dir,
                                   columns=["url", "html", "text", "lang"])
    if url_filter is not None:
        import pyarrow.compute as pc
        need = pa.array(sorted(url_filter), pa.string())
        ds = ds.map_batches(
            lambda b: b.filter(pc.is_in(b.column("url"), need)),
            batch_format="pyarrow")
    return ds.map_batches(
        PageFeatureExtractor,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=actor_cpus,
    )


def tile_dataset(pages_dir: str, config: Config | None = None,
                 concurrency: int | tuple | None = None,
                 with_joins: bool = False,
                 profile_factory=None) -> ray.data.Dataset:
    """pages → MVT tiles: feature_dataset, then the tile chain
    (pipelines/chain.py) with one exchange."""
    config = config or default_config()
    # smaller blocks through the tile shuffle: the sort would otherwise
    # pack the whole exploded dataset into a couple of 128 MB blocks and
    # the assembly stage would run 1-2 tasks. 8 MB ≈ 30-60 assembly
    # tasks at sf0.1; at 100 TB the natural block count dwarfs this and
    # the knob is a no-op.
    from ray.data import DataContext
    ctx = DataContext.get_current()
    if ctx.target_max_block_size is None or ctx.target_max_block_size > 8 * 1024 * 1024:
        ctx.target_max_block_size = 8 * 1024 * 1024
    feats = feature_dataset(pages_dir, config, concurrency=concurrency,
                            with_joins=with_joins,
                            profile_factory=profile_factory)
    # data-derived exchange width: est exploded bytes / target group
    # size (VERDICT r2 #4) — CPU-floored at small scale, macro-block
    # capped at large
    nparts = data_num_partitions(dir_input_bytes(pages_dir))
    return chain.tiles(feats, nparts, config)


def run_flagship(pages_dir: str, out_dir: str | None = None,
                 config: Config | None = None) -> ray.data.Dataset:
    tiles = tile_dataset(pages_dir, config)
    if out_dir:
        tiles.write_parquet(out_dir)
    return tiles


# --- SQL-oracled flagship slice (VERDICT r2 #6) ---------------------------

def points_oracle_config() -> Config:
    """The default `places` layer alone (same feature_limit /
    combine_points semantics as the flagship)."""
    from ..config import LayerDef
    return Config(layers=[LayerDef(name="places", minzoom=0, maxzoom=14,
                                   feature_limit=200, feature_limit_below=15,
                                   combine_points=True)])


def q_flagship_point_counts(sf_dir: str):
    """The REAL flagship engine path — actor-pool extraction, tile
    assignment, pk shuffle, O3 sort + dedup + feature_limit +
    combine_points assembly — restricted to the point layer, whose
    per-tile feature counts are exactly reproducible in SQL (regex
    parse + FNV-1a url hash + mercator tile math + window row_number +
    distinct-class count).  Turns the previously rows-only flagship
    into an oracled query."""
    from ..profile import PointsProfile
    from ..sources.pages import pages_path, rows_for_sf
    pages = pages_path(rows_for_sf(sf_dir))
    df = tile_dataset(pages, config=points_oracle_config(),
                      profile_factory=PointsProfile).to_pandas()
    import numpy as np
    out = df[["zoom", "tile_x", "tile_y", "n_features"]].astype(np.int64)
    return out.sort_values(["zoom", "tile_x", "tile_y"]).reset_index(drop=True)


def flagship_points_oracle_sql(pages_dir: str) -> str:
    """DuckDB twin of q_flagship_point_counts over the same pages
    parquet.  Mirrors, bit-for-bit: extract_text-independent regex
    parse of `geo:` mentions, hash_url (FNV-1a via list_reduce),
    feature_id j-mixing, MinZoom(4+imp//10), z_order=imp*10, canonical
    attrs JSON, lat2latp+tile math (same formula the hash-green
    tile_assign_points oracle uses), per-zoom halving, the O3 sort
    (zo_sort, attrs, fid) feature_limit-200 cut, and combine_points
    (consecutive compatible points merge ⇒ count = distinct attrs among
    survivors)."""
    return f"""
WITH pages AS (
  SELECT url, lang, text FROM read_parquet('{pages_dir}/*.parquet')
), mlist AS (
  SELECT url, lang,
         regexp_extract_all(text, 'geo:-?\\d+\\.\\d+,-?\\d+\\.\\d+') AS lst
  FROM pages
), m AS (
  SELECT url, lang, CAST(u.i AS BIGINT) AS j, lst[u.i + 1] AS mention
  FROM mlist, unnest(range(len(lst))) u(i)
), f AS (
  SELECT url, lang, j,
    CAST(regexp_extract(mention, 'geo:(-?\\d+\\.\\d+),(-?\\d+\\.\\d+)', 1) AS DOUBLE) AS lat,
    CAST(regexp_extract(mention, 'geo:(-?\\d+\\.\\d+),(-?\\d+\\.\\d+)', 2) AS DOUBLE) AS lon,
    list_reduce(
      list_prepend(CAST(14695981039346656037 AS UBIGINT),
        list_transform(range(1, length(url) + 1),
                       i -> CAST(ascii(substr(url, i, 1)) AS UBIGINT))),
      (h, b) -> CAST((CAST(xor(h, b) AS HUGEINT) * 1099511628211)
                     % 18446744073709551616 AS UBIGINT)
    ) AS base_id,
    regexp_extract(url, 'https?://([^/]+)/', 1) AS host
  FROM m
), g AS (
  SELECT
    xor(base_id,
        CAST((CAST(j AS HUGEINT) * 11400714819323198485)
             % 18446744073709551616 AS UBIGINT)) AS fid,
    CAST(base_id % 100 AS BIGINT) AS imp,
    lon, lat, host, lang
  FROM f
), t AS (
  SELECT fid,
    least(14, 4 + imp // 10) AS minzoom,
    -(imp * 10) AS zo_sort,
    '[["host",0,10,"' || host || '"],["lang",0,0,"' || lang ||
      '"],["rank",1,8,' || CAST(imp AS VARCHAR) || '.0]]' AS attrs,
    CAST(floor((lon + 180.0) * (1.0/360.0) * 16384.0) AS BIGINT) AS x14,
    CAST(floor((180.0 - degrees(ln(tan(radians(lat + 90.0) / 2.0))))
               * (1.0/360.0) * 16384.0) AS BIGINT) AS y14
  FROM g
), e AS (
  SELECT z.zoom,
         x14 >> (14 - z.zoom) AS tile_x,
         y14 >> (14 - z.zoom) AS tile_y,
         zo_sort, attrs, fid
  FROM t, (SELECT CAST(i AS BIGINT) AS zoom FROM range(15) r(i)) z
  WHERE z.zoom >= t.minzoom
), r AS (
  SELECT zoom, tile_x, tile_y, attrs,
         row_number() OVER (PARTITION BY zoom, tile_x, tile_y
                            ORDER BY zo_sort, attrs, fid) AS rn
  FROM e
)
SELECT zoom, tile_x, tile_y,
       CAST(count(DISTINCT attrs) AS BIGINT) AS n_features
FROM r WHERE rn <= 200
GROUP BY zoom, tile_x, tile_y
ORDER BY zoom, tile_x, tile_y
"""
