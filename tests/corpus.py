"""Crafted malformed and warning-triggering input files.

Each case is (name, parser key, file text, expectation) where expectation is
either ("error", substring-of-message) or ("warning", expected-dropped-rows).
Every error case must reconcile: accepted + dropped + errored == data rows.
"""

TRIPS_HEADER = "date,origin_region,service_type,trip_count\n"
TX_HEADER = "date,zip,merchant_type,amount\n"
OVERLAPS_HEADER = "region,zip,overlap_area\n"
ADJ_HEADER = "region_a,region_b\n"
ATTR_HEADER = "region,flood_fraction,minority_fraction,per_capita_income\n"

CASES = [
    (
        "trips_negative_count",
        "trips",
        TRIPS_HEADER + "2017-09-01,R001,grocery,5\n2017-09-02,R001,grocery,-3\n",
        ("error", "negative trip_count"),
    ),
    (
        "trips_fractional_count",
        "trips",
        TRIPS_HEADER + "2017-09-01,R001,grocery,1.5\n",
        ("error", "not an integer"),
    ),
    (
        "trips_non_numeric_count",
        "trips",
        TRIPS_HEADER + "2017-09-01,R001,grocery,abc\n",
        ("error", "not an integer"),
    ),
    (
        "trips_bad_date",
        "trips",
        TRIPS_HEADER + "2017-13-40,R001,grocery,3\n",
        ("error", "bad date"),
    ),
    (
        "trips_empty_region",
        "trips",
        TRIPS_HEADER + "2017-09-01,,grocery,3\n",
        ("error", "empty origin_region"),
    ),
    (
        "trips_empty_service_type",
        "trips",
        TRIPS_HEADER + "2017-09-01,R001,,3\n",
        ("error", "empty service_type"),
    ),
    (
        "trips_missing_column",
        "trips",
        "date,origin_region,trip_count\n2017-09-01,R001,3\n",
        ("header-error", "header"),
    ),
    (
        "trips_wrong_header_names",
        "trips",
        "day,region,type,count\n2017-09-01,R001,grocery,3\n",
        ("header-error", "header"),
    ),
    (
        "trips_no_header",
        "trips",
        "",
        ("header-error", "missing header"),
    ),
    (
        "trips_short_row",
        "trips",
        TRIPS_HEADER + "2017-09-01,R001,grocery\n",
        ("error", "expected 4 fields"),
    ),
    (
        "trips_out_of_window_rows",
        "trips",
        TRIPS_HEADER
        + "2017-09-01,R001,grocery,3\n2016-01-01,R001,grocery,3\n2019-01-01,R001,grocery,3\n",
        ("warning", 2),
    ),
    (
        "tx_negative_amount",
        "transactions",
        TX_HEADER + "2017-09-01,77005,restaurant,-1.00\n",
        ("error", "negative amount"),
    ),
    (
        "tx_non_finite_amount",
        "transactions",
        TX_HEADER + "2017-09-01,77005,restaurant,nan\n",
        ("error", "not a number"),
    ),
    (
        "tx_bad_date",
        "transactions",
        TX_HEADER + "yesterday,77005,restaurant,10.00\n",
        ("error", "bad date"),
    ),
    (
        "tx_out_of_window_rows",
        "transactions",
        TX_HEADER + "2017-09-01,77005,restaurant,10.00\n2016-09-01,77005,restaurant,10.00\n",
        ("warning", 1),
    ),
    (
        "overlaps_zero_area",
        "overlaps",
        OVERLAPS_HEADER + "R001,77005,0\n",
        ("error", "positive"),
    ),
    (
        "overlaps_negative_area",
        "overlaps",
        OVERLAPS_HEADER + "R001,77005,-0.5\n",
        ("error", "positive"),
    ),
    (
        "overlaps_duplicate_pair",
        "overlaps",
        OVERLAPS_HEADER + "R001,77005,0.5\nR001,77005,0.4\n",
        ("error", "duplicate"),
    ),
    (
        "adjacency_self_loop",
        "adjacency",
        ADJ_HEADER + "R001,R001\n",
        ("error", "self-loop"),
    ),
    (
        "attributes_fraction_out_of_range",
        "attributes",
        ATTR_HEADER + "R001,1.5,0.5,30000\n",
        ("error", "outside [0, 1]"),
    ),
    (
        "attributes_negative_income",
        "attributes",
        ATTR_HEADER + "R001,0.5,0.5,-1\n",
        ("error", "must be a finite number >= 0"),
    ),
    (
        "attributes_non_numeric_value",
        "attributes",
        ATTR_HEADER + "R001,0.5,abc,30000\n",
        ("error", "minority_fraction 'abc' is not a number"),
    ),
    (
        "attributes_duplicate_region",
        "attributes",
        ATTR_HEADER + "R001,0.5,0.5,30000\nR001,0.2,0.2,40000\n",
        ("error", "duplicate region"),
    ),
]
