"""One table of the public surface: an entry per `__all__` name of every
module in `MODULES`, keyed "module.name".

Each entry names its guard, the check that fails when the name returns a
wrong result: a `verify` row id (a check of the CLI's `verify` suites), or
"test_file::Class::test" (the class or test in `tests/test_file.py` that
holds the name against an independent oracle).  `test_surface.py` keeps the
table and the modules' `__all__` in step and checks that every guard
exists.
"""

MODULES = ("circlespace", "e2action", "evolve", "ladder", "mincs", "specfun",
           "verify", "zakcs")

SURFACE = {
    "circlespace.Sector": {"guard": "test_circlespace::TestSectorRule"},
    "circlespace.RepLabel": {"guard": "test_circlespace::TestRepApply"},
    "circlespace.Params": {"guard": "test_circlespace::TestParams"},
    "circlespace.CircleState": {"guard": "test_circlespace::TestScaledNorm"},
    "circlespace.UncertaintyReport": {
        "guard": "test_circlespace::TestUncertaintyReport"},
    "circlespace.basis_state": {"guard": "test_circlespace::TestBasisState"},
    "circlespace.apply_operator": {"guard": "test_circlespace::TestOperators"},
    "circlespace.inner": {
        "guard": "test_circlespace::TestInner::test_quadrature_oracle"},
    "circlespace.uncertainty_report": {
        "guard": "test_circlespace::TestUncertaintyReport"},
    "circlespace.rep_apply": {
        "guard": "test_circlespace::TestRepApply"
                 "::test_translation_jacobi_anger_oracle"},
    "circlespace.energy": {"guard": "test_circlespace::TestEnergy"},
    # the sector's ground level and its degeneracy at delta = 1/2
    "circlespace.ground_state": {"guard": "test_circlespace::TestEnergy"},
    # the flux-to-sector map: Aharonov-Bohm flux fixes delta
    "circlespace.delta_from_flux": {
        "guard": "test_circlespace::TestDeltaFromFlux"},
    # the time reversal, delta -> 1 - delta
    "circlespace.time_reversal": {
        "guard": "test_circlespace::TestDiscreteSymmetries"},
    # the parity phi -> -phi, delta -> 1 - delta
    "circlespace.parity": {
        "guard": "test_circlespace::TestDiscreteSymmetries"},
    "circlespace.fidelity": {
        "guard": "test_circlespace::TestSectorRule"
                 "::test_integer_shifts_share_one_space"},

    "e2action.GroupElement": {"guard": "test_e2action::TestRecordContract"},
    "e2action.PhaseSpacePoint": {"guard": "test_e2action::TestFiniteLabels"},
    "e2action.compose": {"guard": "group-action-homomorphism"},
    "e2action.identity": {
        "guard": "test_e2action::TestCompose::test_identity"},
    "e2action.act": {"guard": "group-action-homomorphism"},
    "e2action.solve_transporter": {"guard": "transporter-round-trip"},
    "e2action.symplectic_residual": {"guard": "test_e2action::TestSymplectic"},
    "e2action.induced_fields": {
        "guard": "test_e2action::TestInducedFields"
                 "::test_matches_hamiltonian_fields"},
    "e2action.poisson_bracket": {
        "guard": "test_e2action::TestInducedFields"
                 "::test_poisson_brackets_close"},

    "evolve.EvolutionSpec": {"guard": "test_evolve::TestKernel"},
    "evolve.propagate": {"guard": "test_evolve::TestPropagate"},
    "evolve.moment_series": {"guard": "test_evolve::TestMomentSeries"},
    "evolve.kernel": {"guard": "kernel-two-faces"},
    "evolve.kernel_apply": {"guard": "kernel-vs-spectral"},
    "evolve.evolve_w": {
        "guard": "test_evolve::TestEvolveW"
                 "::test_matches_spectral_propagation"},

    "ladder.LadderContext": {"guard": "test_ladder::TestContext"},
    "ladder.KJReport": {"guard": "quadrature-pair-saturation"},
    "ladder.apply_B": {"guard": "test_ladder::TestShiftAction"},
    "ladder.apply_Bdag": {"guard": "test_ladder::TestShiftAction"},
    # the Gaussian complexifier e^{-eps L^2/2} that conjugates U into B
    "ladder.apply_complexifier": {
        "guard": "test_ladder::TestShiftAction"
                 "::test_complexifier_conjugation_is_lowering"},
    "ladder.eigen_residual": {"guard": "eigen-residual"},
    "ladder.kj_report": {"guard": "quadrature-pair-saturation"},
    "ladder.kj_matrix_elements": {"guard": "quadrature-pair-saturation"},
    "ladder.pair_stats": {
        "guard": "test_ladder::TestKJReport"
                 "::test_pair_stats_vs_dense_matrices"},
    "ladder.qdeform_residual": {"guard": "qdeformed-algebra"},

    "mincs.MinUncParams": {"guard": "test_records::TestRefusals"},
    "mincs.MinExpectations": {"guard": "moments-vs-quadrature"},
    "mincs.OverlapResult": {"guard": "test_mincs::TestMinOverlap"},
    "mincs.min_state": {
        "guard": "test_mincs::TestMinState"
                 "::test_coefficients_vs_grid_projection"},
    "mincs.min_expectations": {"guard": "moments-vs-quadrature"},
    "mincs.saturation_gap": {"guard": "saturation-both-pairs"},
    "mincs.min_overlap": {
        "guard": "test_mincs::TestMinOverlap"
                 "::test_against_coefficient_oracle"},
    "mincs.sum_rule_residual": {"guard": "bessel-sum-rule"},
    "mincs.completeness_residual": {"guard": "completeness-residual"},
    "mincs.dbt_divergence": {"guard": "group-average-divergence"},

    "specfun.ThetaNome": {"guard": "test_specfun::TestThetaNome"},
    "specfun.EllipticRecord": {"guard": "elliptic-identity-web"},
    "specfun.GRatio": {"guard": "test_specfun::TestGRatio"},
    "specfun.theta": {"guard": "test_specfun::TestThetaAgainstMpmath"},
    "specfun.theta_derivs": {"guard": "elliptic-identity-web"},
    "specfun.bessel_i": {"guard": "test_specfun::TestBesselI"},
    "specfun.bessel_j": {"guard": "test_specfun::TestBesselJ"},
    "specfun.elliptic_suite": {"guard": "elliptic-identity-web"},
    "specfun.g_ratio": {
        "guard": "test_specfun::TestGRatio::test_reference_table"},

    "verify.Row": {
        "guard": "test_verify::test_rows_follow_the_requested_suite_order"},
    "verify.SUITES": {"guard": "test_cli::TestVerify"},
    "verify.run": {
        "guard": "test_verify::test_nan_residual_is_reported_and_fails"},

    "zakcs.PhasePoint": {"guard": "test_records::TestRefusals"},
    "zakcs.WZParams": {
        "guard": "test_zakcs::TestWState"
                 "::test_stiffness_keeps_every_nome_a_normal_double"},
    "zakcs.WZExpectations": {
        "guard": "test_zakcs::TestWExpectations"
                 "::test_against_quadrature_matrix_elements"},
    "zakcs.WZLeadingOrder": {
        "guard": "test_zakcs::TestWExpectations"
                 "::test_leading_order_close_to_exact"},
    "zakcs.WZCompletenessResiduals": {"guard": "completeness-both-forms"},
    "zakcs.gaussian_cs": {"guard": "test_zakcs::TestGaussianCS"},
    "zakcs.zak_periodize": {"guard": "periodization-two-faces"},
    "zakcs.w_state": {"guard": "norm-vs-theta"},
    "zakcs.w_value": {
        "guard": "test_zakcs::TestWState"
                 "::test_coefficients_reproduce_closed_form"},
    "zakcs.w_norm_sq": {"guard": "norm-vs-theta"},
    # C_z, the normalizer of the periodized Gaussian itself, against a
    # 40-digit sum
    "zakcs.periodized_norm_constant": {
        "guard": "test_zakcs::TestUnderflowingNomes"
                 "::test_against_40_digit_sums"},
    "zakcs.w_overlap": {
        "guard": "test_zakcs::TestWOverlap"
                 "::test_kernel_equals_state_inner"},
    "zakcs.fn_basis": {
        "guard": "test_zakcs::TestBargmannMap"
                 "::test_evaluation_is_overlap_with_family"},
    "zakcs.w_expectations": {
        "guard": "test_zakcs::TestWExpectations"
                 "::test_against_quadrature_matrix_elements"},
    "zakcs.transition_prob": {
        "guard": "test_zakcs::TestTransitionProb"
                 "::test_matches_normalized_coefficients"},
    "zakcs.density": {
        "guard": "test_zakcs::TestDensity::test_matches_normalized_state"},
    "zakcs.completeness_residual_wz": {"guard": "completeness-both-forms"},
}
