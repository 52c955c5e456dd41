"""Synthesis and verification toolkit for two-ion sideband steering.

Modules
-------
operator_core        coupling operators, exact segment flows
spectral_decoupling  exact frequencies, resonance classes, class generators
torus_winding        lifted-time selection and certification
lie_certifier        Lie-closure controllability certificates
modal_planner        piecewise-constant steering in the decoupled truncation
lift_simulator       lifting to the full system and exact simulation
cli                  batch command-line front end

The dense decomposition U = sum_j U_j + U_dec + U_rho, its class
projectors and the internal-major block patterns are test oracles in
``tests/helpers.py``; nothing at run time needs them.
"""

__version__ = "0.1.0"
