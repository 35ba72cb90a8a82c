"""The used-car webbase's logical schema: the definitions of Table 2.

Five site-independent relations over the VPS::

    classifieds(make, model, year, price, contact, features)
        = π(newsday ⋈ newsday_car_features) ∪ π(ρ(nytimes))
    dealers(make, model, year, price, contact, features, zip)
        = π(ρ(carpoint)) ∪ π(ρ(autoweb))
    blue_price(make, model, year, condition, bb_price) = ρ(kellys)
    reliability(make, model, year, safety)             = caranddriver
    interest(zip, duration, rate)                      = ρ(carfinance)

plus one extension relation, ``all_ads``, unioning the classified/dealer
listings of *every* mapped ad site (used by the parallelization ablation).

Each branch renames the site vocabulary into the logical one and applies
the standardizing casts (prices to integer USD — converting WWWheels'
Canadian dollars — years/durations to int, rates to float).
"""

from __future__ import annotations

from repro.logical.schema import LogicalSchema
from repro.logical.standardize import to_int, to_percent, to_usd
from repro.relational.algebra import (
    Base,
    Catalog,
    Derive,
    Expr,
    Join,
    Project,
    Rename,
    Union,
    rename,
    union_all,
)

AD_SCHEMA = ("make", "model", "year", "price", "contact")


def car_catalog_stats(logical: LogicalSchema, ads_per_host: int = 120):
    """Optimizer statistics for the Table-2 relations.

    Cardinalities and distinct-value counts follow from the simulated
    world's generation parameters (catalog size, year range, zip pool);
    fetch weights and probe attributes are derived from the definitions
    themselves by :meth:`~repro.relational.cost.CatalogStats.from_catalog`.
    The ``model → make`` functional dependency tells the cost model that
    fixing a make leaves only a couple of models, not the whole catalog.
    """
    from repro.relational.cost import CatalogStats
    from repro.sites.dataset import (
        CAR_CATALOG,
        CONDITIONS,
        MAKES,
        NY_ZIPCODES,
        OTHER_ZIPCODES,
        SAFETY_RATINGS,
        YEARS,
    )

    makes, models, years = len(MAKES), len(CAR_CATALOG), len(YEARS)
    zips = len(NY_ZIPCODES) + len(OTHER_ZIPCODES)
    conditions, safety = len(CONDITIONS), len(SAFETY_RATINGS)
    durations = 4  # the finance sites quote 24/36/48/60-month loans
    ads = 2 * ads_per_host  # each listing relation unions two sites
    common = {"make": makes, "model": models, "year": years}

    def listing(card: int, **extra: int) -> dict[str, int]:
        return {**common, "price": card, "contact": card, "features": card, **extra}

    cardinalities = {
        "classifieds": ads,
        "dealers": ads,
        "blue_price": models * years * conditions,
        "reliability": models * years,
        "interest": zips * durations,
        "all_ads": 9 * ads_per_host,
    }
    distinct = {
        "classifieds": listing(ads),
        "dealers": listing(ads, zip=zips),
        "blue_price": {**common, "condition": conditions,
                       "bb_price": models * years * conditions},
        "reliability": {**common, "safety": safety},
        "interest": {"zip": zips, "duration": durations, "rate": zips * durations},
        "all_ads": listing(9 * ads_per_host),
    }
    return CatalogStats.from_catalog(
        logical,
        logical.relation_names,
        cardinalities=cardinalities,
        distinct=distinct,
        fd_parents={"model": "make"},
    )


def _standardize(
    expr: Expr,
    renames: dict[str, str] | None = None,
    usd_attrs: tuple[str, ...] = (),
    int_attrs: tuple[str, ...] = (),
    percent_attrs: tuple[str, ...] = (),
) -> Expr:
    """Rename into logical vocabulary, then cast displayed values."""
    if renames:
        expr = rename(expr, renames)
    for attr in usd_attrs:
        expr = Derive(expr, attr, _usd_of(attr))
    for attr in int_attrs:
        expr = Derive(expr, attr, _int_of(attr))
    for attr in percent_attrs:
        expr = Derive(expr, attr, _percent_of(attr))
    return expr


def _usd_of(attr: str):
    return lambda row: to_usd(row.get(attr))


def _int_of(attr: str):
    return lambda row: to_int(row.get(attr))


def _percent_of(attr: str):
    return lambda row: to_percent(row.get(attr))


def _newsday_branch() -> Expr:
    joined = Join(Base("newsday"), Base("newsday_car_features"))
    converted = _standardize(joined, usd_attrs=("price",), int_attrs=("year",))
    return Project(converted, AD_SCHEMA + ("features",))


def _nytimes_branch() -> Expr:
    converted = _standardize(
        Base("nytimes"),
        renames={"manufacturer": "make", "asking_price": "price"},
        usd_attrs=("price",),
        int_attrs=("year",),
    )
    return Project(converted, AD_SCHEMA + ("features",))


def _carpoint_branch() -> Expr:
    converted = _standardize(
        Base("carpoint"),
        renames={"dealer": "contact"},
        usd_attrs=("price",),
        int_attrs=("year",),
    )
    return Project(converted, AD_SCHEMA + ("features", "zip"))


def _autoweb_branch() -> Expr:
    converted = _standardize(
        Base("autoweb"),
        renames={"seller": "contact", "options": "features", "zip_code": "zip"},
        usd_attrs=("price",),
        int_attrs=("year",),
    )
    return Project(converted, AD_SCHEMA + ("features", "zip"))


def _plain_ads(base_name: str, renames: dict[str, str] | None = None) -> Expr:
    converted = _standardize(
        Base(base_name), renames=renames, usd_attrs=("price",), int_attrs=("year",)
    )
    return Project(converted, AD_SCHEMA)


def car_logical_schema(vps: Catalog) -> LogicalSchema:
    """Assemble the full Table-2 logical schema over a VPS catalog."""
    logical = LogicalSchema(vps)

    logical.define("classifieds", Union(_newsday_branch(), _nytimes_branch()))
    logical.define("dealers", Union(_carpoint_branch(), _autoweb_branch()))
    logical.define(
        "blue_price",
        _standardize(
            Base("kellys"), usd_attrs=("bb_price",), int_attrs=("year",)
        ),
    )
    logical.define(
        "reliability", _standardize(Base("caranddriver"), int_attrs=("year",))
    )
    logical.define(
        "interest",
        _standardize(
            Base("carfinance"),
            renames={"zip_code": "zip"},
            int_attrs=("duration",),
            percent_attrs=("rate",),
        ),
    )

    # Extension: every ad site at once (exercised by the parallel ablation).
    logical.define(
        "all_ads",
        union_all(
            [
                Project(_newsday_branch(), AD_SCHEMA),
                Project(_nytimes_branch(), AD_SCHEMA),
                Project(_carpoint_branch(), AD_SCHEMA),
                Project(_autoweb_branch(), AD_SCHEMA),
                _plain_ads("nydaily"),
                _plain_ads("carreviews"),
                _plain_ads("wwwheels"),
                _plain_ads("autoconnect"),
                _plain_ads("yahoocars"),
            ]
        ),
    )
    return logical
