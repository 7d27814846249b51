-- Dice: AnalysisAppointmentsPatientOnNationalLevel / ScheduledAppointmentsBySpecificPatientResidenceCityAndYear
-- dices the data to visualise the appointments that were scheduled in a specific year by patients that reside in a specific city
SELECT "f".*
FROM "AppointmentRequest" "f"
JOIN "Patient" "j_patient" ON "f"."patient" = "j_patient"."id"
JOIN "Time" "j_scheduled_date" ON "f"."scheduled_date" = "j_scheduled_date"."id"
WHERE "j_patient"."residence" = :id
  AND "j_scheduled_date"."year" = :year;
